package loadgen

import (
	"encoding/json"
	"time"

	"pequod/internal/twip"
)

// Report is the machine-readable result of one open-loop run: the
// configuration that produced it (seed first — any run replays from
// it), per-phase latency/throughput, and the checker's verdict.
type Report struct {
	Seed        int64    `json:"seed"`
	Users       int      `json:"users"`
	ActiveUsers int      `json:"active_users"`
	Follows     int      `json:"follows"`
	Mix         twip.Mix `json:"mix"`
	OfferedRate float64  `json:"offered_rate_ops_per_sec"`
	Workers     int      `json:"workers"`
	Servers     int      `json:"servers"`
	Replicas    int      `json:"replicas"`
	Durable     bool     `json:"durable"`
	BudgetMs    int64    `json:"staleness_budget_ms"`
	ReadStaleMs int64    `json:"read_stale_ms,omitempty"`
	DualRead    bool     `json:"dual_read,omitempty"`
	ElapsedSec  float64  `json:"elapsed_sec"`

	Phases  []PhaseReport `json:"phases"`
	Checker CheckerReport `json:"checker"`
}

// PhaseReport carries one phase's throughput and latency tail. Offered
// counts operations scheduled by the open-loop clock during the phase;
// Completed counts operations that finished (and were attributed to
// the phase that scheduled them); Shed counts arrivals dropped because
// the dispatch queue was full — under overload the harness sheds
// rather than silently turning closed-loop. Latency is measured from
// the scheduled arrival time, not the dequeue time, so queueing delay
// is charged to the operation (no coordinated omission). Members is the
// cluster's member count at the phase's end; HotShare is the hottest
// member's share of the client load units served during the phase (a
// member counts only client requests, not peers' mesh loads or replica
// syncs), from the member loads polled at its two boundaries (0 when a
// poll failed).
type PhaseReport struct {
	Name         string  `json:"name"`
	Event        string  `json:"event,omitempty"`
	DurationSec  float64 `json:"duration_sec"`
	Offered      int64   `json:"offered"`
	Completed    int64   `json:"completed"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed"`
	OfferedRate  float64 `json:"offered_rate_ops_per_sec"`
	AchievedRate float64 `json:"achieved_rate_ops_per_sec"`
	P50us        int64   `json:"p50_us"`
	P99us        int64   `json:"p99_us"`
	P999us       int64   `json:"p999_us"`
	MaxUs        int64   `json:"max_us"`
	MeanUs       float64 `json:"mean_us"`
	Members      int     `json:"members"`
	HotShare     float64 `json:"hot_share"`
}

// phaseReport folds one phase's counters and histogram.
func phaseReport(name, event string, elapsed time.Duration, offered, completed, errors, shed int64, h *ShardedHist) PhaseReport {
	s := h.Merge()
	secs := elapsed.Seconds()
	pr := PhaseReport{
		Name:        name,
		Event:       event,
		DurationSec: secs,
		Offered:     offered,
		Completed:   completed,
		Errors:      errors,
		Shed:        shed,
		P50us:       s.Quantile(0.50),
		P99us:       s.Quantile(0.99),
		P999us:      s.Quantile(0.999),
		MaxUs:       s.Max,
		MeanUs:      s.Mean(),
	}
	if secs > 0 {
		pr.OfferedRate = float64(offered) / secs
		pr.AchievedRate = float64(completed) / secs
	}
	return pr
}

// JSON renders the report, indented for committing and diffing.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil { // a plain-data struct cannot fail to marshal
		panic(err)
	}
	return append(b, '\n')
}
