// Package loadgen is the open-loop, millions-of-users load harness.
//
// Unlike the closed-loop runners in internal/twip and
// internal/experiments — which issue the next operation only when the
// previous one returns, and therefore can't see queueing, tail
// latency, or freshness lag — loadgen schedules arrivals on an
// independent clock (exponential gaps at a configured rate) and
// measures every operation from its *scheduled* time. An overloaded
// cluster shows up as growing latency and shed arrivals, never as a
// silently reduced offered rate.
//
// The pieces:
//
//   - Universe: a procedural social graph. Followee sets, celebrity
//     skew (Zipf, shared between follow targets and post authors),
//     and the active reader pool all derive from one seed, so a
//     universe of millions costs a few words and every run replays
//     from its printed seed.
//   - Hist/ShardedHist: lock-free HDR-style log-linear histograms,
//     one atomic add per observation, sharded per worker.
//   - Checker: the online oracle. It shadows a deterministic subset
//     of users and audits their timeline reads *while load runs* —
//     lost acknowledged writes, out-of-budget staleness, phantoms,
//     duplicates, payload mismatches — and measures freshness lag as
//     an age distribution. A final post-quiesce sweep demands every
//     acknowledged row with no grace.
//   - Runner: drives the phase script (steady, join, drain,
//     rebalance, member kill + automatic repair, warm restart) over a
//     self-contained cluster it owns, or pure load against a live
//     deployment, and emits the per-phase Report (cmd/pequod-load
//     -out writes it as JSON). Member loads (the client requests
//     each member answered) polled at each phase boundary give every
//     phase its member count and hot share, so elasticity and
//     rebalancing are measured here, under the checker.
//
// cmd/pequod-load is the CLI; TestOpenLoopUnderChaos runs the whole
// scenario scaled down under the race detector in CI.
package loadgen
