package par

import "sync"

// Pool is a fixed set of workers for barrier-synchronized fan-out: the
// epoch loop of the sharded simulation kernel calls Run once per epoch,
// and every worker must finish its share before the epoch's cross-shard
// merge may begin. A Pool draws its workers from the same global budget
// as Map — creating a Pool of n shares claims up to n-1 spare slots for
// the Pool's lifetime — so nested experiment fan-outs and shard pools
// honor one SetLimit together.
//
// Shares that exceed the granted workers run inline on the caller, and a
// Pool granted zero spare workers degenerates to a plain loop: on a
// single-core budget, Run(f) is exactly `for i := range n { f(i) }` with
// no goroutines, channels, or atomics on the path. That degenerate form
// matters: the sharded kernel's determinism contract says worker count
// never changes output, so the Pool must be free to collapse without
// changing any observable behavior.
type Pool struct {
	n       int           // shares per Run
	workers int           // goroutines actually spawned (<= n-1)
	fn      func(int)     // current Run's body
	start   chan struct{} // broadcast: new Run available (recreated per Run)
	done    sync.WaitGroup
	quit    chan struct{}
	runMu   sync.Mutex // guards fn/start handoff between Runs
	starts  []chan int // per-worker share handoff
}

// NewPool returns a pool that fans each Run out over n shares. It claims
// up to n-1 spare workers from the global budget (fewer when the budget
// is short; zero makes every Run inline). Close releases them.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n, quit: make(chan struct{})}
	for i := 0; i < n-1; i++ {
		if !acquire() {
			break
		}
		p.workers++
	}
	p.starts = make([]chan int, p.workers)
	for w := 0; w < p.workers; w++ {
		p.starts[w] = make(chan int)
		go p.work(p.starts[w])
	}
	return p
}

// work is one worker's loop: receive a share index, run it, mark done.
func (p *Pool) work(starts chan int) {
	for {
		select {
		case <-p.quit:
			return
		case i := <-starts:
			p.fn(i)
			p.done.Done()
		}
	}
}

// Run executes fn(0..n-1), one call per share, and returns when all have
// finished (the barrier). The first workers shares go to the pool's
// goroutines; the caller runs the rest inline. Run must not be called
// concurrently with itself.
func (p *Pool) Run(fn func(i int)) {
	if p.workers == 0 {
		for i := 0; i < p.n; i++ {
			fn(i)
		}
		return
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.fn = fn
	p.done.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.starts[w] <- w
	}
	for i := p.workers; i < p.n; i++ {
		fn(i)
	}
	p.done.Wait()
}

// Workers returns the number of dedicated worker goroutines the pool was
// granted (zero means Run executes entirely inline).
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers and returns their slots to the global budget.
// The pool must be idle. Close is idempotent.
func (p *Pool) Close() {
	select {
	case <-p.quit:
		return // already closed
	default:
	}
	close(p.quit)
	for i := 0; i < p.workers; i++ {
		release()
	}
	p.workers = 0
}
