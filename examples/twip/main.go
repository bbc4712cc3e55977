// Twip example: a networked Pequod server running the paper's
// microblogging application (§2.1–§2.3), including celebrity joins.
//
// Run: go run ./examples/twip
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pequod"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Celebrity join set (§2.3): normal posts flow through the eager
	// timeline join; celebrity posts are stored under cp|, collected
	// time-primary in ct|, and joined at read time (pull) to save the
	// memory of copying them into millions of timelines.
	srv, err := pequod.NewServer(pequod.ServerConfig{
		Name: "twip",
		Joins: `
		  ct|<time>|<poster> = copy cp|<poster>|<time>;
		  t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>;
		  t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>
		`,
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Println("twip server on", addr)

	c, err := pequod.DialContext(ctx, addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// ann follows bob (a regular user) and celeb (a celebrity); bea
	// follows only bob. One pipelined batch: every put is sent before
	// any reply is awaited.
	must(c.PutBatch(ctx, []pequod.KV{
		{Key: "s|ann|bob", Value: "1"},
		{Key: "s|ann|celeb", Value: "1"},
		{Key: "s|bea|bob", Value: "1"},
		{Key: "p|bob|0100", Value: "bob: regular tweet"},
		{Key: "cp|celeb|0150", Value: "celeb: to my millions of followers"},
		{Key: "p|bob|0200", Value: "bob: another one"},
	}))

	// Both timelines in one pipelined batch of range scans.
	timelines, err := c.ScanBatch(ctx, []pequod.Range{
		pequod.ScanRange("t", "ann"),
		pequod.ScanRange("t", "bea"),
	}, 0)
	must(err)
	for i, user := range []string{"ann", "bea"} {
		fmt.Printf("%s's timeline:\n", user)
		for _, kv := range timelines[i] {
			fmt.Printf("  %s -> %q\n", kv.Key, kv.Value)
		}
	}

	// The celebrity tweet reached ann through the pull join without ever
	// being materialized; server stats show the difference.
	st, err := c.Stat(ctx)
	must(err)
	fmt.Println("server stats:", st)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
