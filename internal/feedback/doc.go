// Package feedback closes the loop between served predictions and
// measured ground truth: it ingests throughput measurements, decides
// whether the live model has drifted, retrains a candidate in the
// background, shadow-serves it against live traffic, and promotes it
// atomically once it provably beats the live model.
//
// The lifecycle, per (nf, hw, backend) key:
//
//	ingest ──► drift gate ──► retrain ──► shadow ──► promote
//	   │           │             │           │          │
//	   │           │             │           │          └─ persist + swap model,
//	   │           │             │           │             bump generation
//	   │           │             │           └─ live traffic predicted by BOTH
//	   │           │             │              models; candidate output recorded,
//	   │           │             │              never returned to clients
//	   │           │             └─ candidate trained through the Backend
//	   │           │                interface at the live model's frequency
//	   │           │                factor times the gate's
//	   │           │                measured/predicted ratio
//	   │           └─ dDCA-style fusion: a data signal (windowed
//	   │              prediction-error ratio) gated by diagnostic signals
//	   │              (self-consistency, per-source outlier rate) so faulty
//	   │              or hostile measurement bursts are quarantined while
//	   │              genuine shift trips retraining
//	   └─ bounded per-key ring window of measured/predicted ratios
//
// The hard problem is separating real workload shift from bad sensors:
// both look like "measurements disagree with the model". The gate
// borrows the dendritic-cell trick of fusing the data signal with
// diagnostics about the data itself. A genuine hardware or workload
// shift moves *every* source's measurements coherently — the trusted
// median ratio walks away from 1 while the trusted set stays
// self-consistent, and the gate trips. A faulty or hostile source
// disagrees with the consensus — its samples are outliers against the
// window median, the source is quarantined, and the gate reports OK
// off the remaining trusted set. A burst of mutually inconsistent junk
// inflates the trusted set's dispersion (or shrinks the trusted
// fraction), and the gate holds: it refuses to either trip or clear
// until the signal cleans up.
//
// Retraining never touches the serving path: the candidate is
// shadow-served (both models predict, only the live answer leaves the
// process) and promoted only when its cumulative relative error on
// ground-truth-bearing observations beats the live model's over a
// minimum sample count. Promotion is atomic — the registry swaps the
// memoized model in one step, so no request ever observes an empty
// slot — and bumps the model's generation so promotions are externally
// observable via /v2/models and /v2/stats.
package feedback
