package zmap

import (
	"errors"
	"fmt"
	"sort"
)

// ErrTransient classifies recoverable receive-side faults: a Recv error
// wrapping it (a stall or timeout that consumed no packet) leaves the
// receiver draining, while every other transport error — a failed
// send, a closed socket, a dead transport — is terminal for the worker
// that hit it and goes to the scan's FailurePolicy. Today only
// FaultTransport's injected receive stalls produce it.
var ErrTransient = errors.New("transient transport fault")

// Transient reports whether err is a recoverable transport fault.
func Transient(err error) bool { return errors.Is(err, ErrTransient) }

// FailurePolicy selects how a scan responds to transport errors. The
// two implementations — AbortAll, QuarantineWorker — are the whole
// contract (the interface is sealed); nil means AbortAll. DESIGN.md §9
// tabulates the guarantees each policy keeps.
type FailurePolicy interface{ failurePolicy() }

// AbortAll is the historical default: the first transport error cancels
// every worker and surfaces as the scan's error. All pre-existing
// determinism tests run under it unmodified.
type AbortAll struct{}

func (AbortAll) failurePolicy() {}

// QuarantineWorker degrades gracefully instead of aborting: a worker
// whose transport fails is quarantined — its unfinished sub-shard is
// recorded in the scan's checkpoint — while the surviving workers
// finish theirs. The scan then returns its partial Stats along with a
// *PartialError carrying the resumable remainder.
type QuarantineWorker struct{}

func (QuarantineWorker) failurePolicy() {}

// PartialError is the error a QuarantineWorker scan returns when at
// least one worker died: the scan's results are valid but incomplete,
// and Checkpoint records exactly the remainder a resumed scan must
// cover (Config.Resume).
type PartialError struct {
	// Checkpoint is the scan's high-water state: quarantined workers
	// hold their last completed position, survivors are marked done.
	Checkpoint *Checkpoint
	// WorkerErrs maps each quarantined worker to its terminal error.
	WorkerErrs map[int]error
}

func (e *PartialError) Error() string {
	workers := make([]int, 0, len(e.WorkerErrs))
	for w := range e.WorkerErrs {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	first := error(nil)
	if len(workers) > 0 {
		first = e.WorkerErrs[workers[0]]
	}
	return fmt.Sprintf("zmap: partial scan: %d worker(s) %v quarantined, first: %v",
		len(workers), workers, first)
}

// Unwrap exposes the quarantined workers' errors to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	workers := make([]int, 0, len(e.WorkerErrs))
	for w := range e.WorkerErrs {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	errs := make([]error, len(workers))
	for i, w := range workers {
		errs[i] = e.WorkerErrs[w]
	}
	return errs
}
