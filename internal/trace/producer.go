package trace

// Producer runs record generation ahead of the machine: one goroutine
// fills its generators' chunk rings while their consumers drain them, so
// the workload steps, the per-record checks and the write-set bookkeeping
// leave the consumer's goroutine. Everything it runs is a function of the
// streams alone, so the consumers see the records, errors and write sets
// they would see with no Producer at all.
type Producer struct {
	gens []*Generator
	wake chan struct{}
}

// recordBudget is the chunk memory a Producer gives all its generators
// together, in records: a 64-core machine gets as much as a 4-core one.
const recordBudget = 3072

// NewProducer carves every generator's chunk ring from one allocation of
// recordBudget records, split evenly, with room for a write set per two
// records and a TX_END per four. A chunk that needs more grows on its own.
func NewProducer(gens []*Generator) *Producer {
	size := recordBudget / (len(gens) * ringChunks)
	n := size * len(gens) * ringChunks
	recs := make([]Record, n)
	writes := make([]Write, n/2)
	ends := make([]int32, n/4)
	for i, g := range gens {
		for j := range g.ring {
			k := i*ringChunks + j
			c := &g.ring[j]
			c.recs = recs[k*size : k*size : (k+1)*size]
			c.writes = writes[k*size/2 : k*size/2 : (k+1)*size/2]
			c.ends = ends[k*size/4 : k*size/4 : (k+1)*size/4]
		}
	}
	return &Producer{gens: gens, wake: make(chan struct{}, 1)}
}

// Start starts the producer goroutine. The returned stop function ends it
// and waits for it to exit; no fill is under way once stop returns. Start
// and stop must be called from the consumers' goroutine, and Start again
// only after stop.
func (p *Producer) Start() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	for _, g := range p.gens {
		g.wake = p.wake
	}
	go p.run(quit, done)
	return func() {
		close(quit)
		<-done
		for _, g := range p.gens {
			g.wake = nil
		}
	}
}

// run fills one chunk per generator per pass, round robin, and sleeps
// until a consumer releases a chunk when no ring has room.
func (p *Producer) run(quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		filled := false
		for _, g := range p.gens {
			select {
			case <-quit:
				return
			default:
			}
			if g.fillAhead() {
				filled = true
			}
		}
		if !filled {
			select {
			case <-quit:
				return
			case <-p.wake:
			}
		}
	}
}
