package client_test

import (
	"fmt"
	"testing"

	"pequod/internal/client"
	"pequod/internal/server"
)

// BenchmarkWarmScanLoopback is a warm timeline read over the wire: one
// server on loopback, one 500-row timeline already computed, each
// iteration one synchronous Scan. Client and server share the process,
// so allocations count both sides of the hop.
func BenchmarkWarmScanLoopback(b *testing.B) {
	s, err := server.New(server.Config{
		Joins: "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Start()
	if err != nil {
		b.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const posters, posts = 10, 50
	for p := 0; p < posters; p++ {
		poster := fmt.Sprintf("u%04d", p)
		if err := c.Put("s|ann|"+poster, "1"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < posts; i++ {
			if err := c.Put(fmt.Sprintf("p|%s|%010d", poster, i*posters+p), "a typical tweet body of some length"); err != nil {
				b.Fatal(err)
			}
		}
	}
	scan := func() {
		kvs, err := c.Scan("t|ann|", "t|ann}", 0)
		if err != nil || len(kvs) != posters*posts {
			b.Fatalf("timeline scan = %d rows, %v; want %d", len(kvs), err, posters*posts)
		}
	}
	scan() // computes the timeline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
