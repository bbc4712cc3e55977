package client

import (
	"context"
	"errors"
	"io"
	"net"

	"pequod/internal/perrs"
)

// IsUnavailable reports whether err means the server could not be
// reached at all — the connection failed to dial, died mid-request, or
// was already marked failed — as opposed to the server answering with
// an error. The cluster client uses it to decide which failures are
// worth retrying against a (possibly repaired) view: a NotOwner
// bounce, a caller-cancelled context, and an ordinary reply error all
// return false.
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, perrs.ErrNotOwner) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
