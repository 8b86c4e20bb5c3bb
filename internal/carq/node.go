package carq

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Deps are the node's runtime dependencies.
type Deps struct {
	// Ctx is the simulation clock and timer source.
	Ctx *sim.Engine
	// Port transmits frames; *mac.Station satisfies it.
	Port Port
	// RNG drives beacon jitter. Pass a node-specific stream.
	RNG *rand.Rand
	// Observer receives protocol events; nil disables.
	Observer Observer
}

// respKey identifies a scheduled cooperative response.
type respKey struct {
	dst packet.NodeID
	seq uint32
}

// Node is one vehicle running the Cooperative-ARQ protocol. It is driven
// entirely by the simulation loop: frames arrive via HandleFrame and
// timers via the sim context, so the type needs no internal locking.
type Node struct {
	cfg  Config
	ctx  *sim.Engine
	port Port
	rng  *rand.Rand
	obs  Observer

	phase Phase

	// Neighbour and cooperator state. cands is kept sorted by ID as
	// candidates arrive and expire, the order Selection sees them in.
	cands      []Candidate
	myCoops    []packet.NodeID                 // cooperators I advertise, in order
	serveOrder map[packet.NodeID]int           // my response order for nodes that listed me
	serveSeen  map[packet.NodeID]time.Duration // last HELLO from nodes I serve

	// Own-flow reception state. ownMin/ownMax are the first and last
	// sequence numbers received *directly* from the AP — the recovery
	// range the paper prescribes. have holds the payloads; heldBits
	// mirrors its keys as a bitset over the recovery window (bit i of
	// word w is seq heldBase+64w+i), so the missing list is a word scan
	// instead of one map probe per sequence.
	have     map[uint32][]byte
	heldBits []uint64
	heldBase uint32 // a multiple of 64
	ownMin   uint32
	ownMax   uint32
	ownSeen  bool

	// Packets buffered for other platoon members: flow -> seq -> payload.
	forOthers map[packet.NodeID]map[uint32][]byte

	// Timers, pooled through the engine: re-arming them (which the
	// AP timeout does on every reception) allocates nothing.
	helloTimer   *sim.Timer
	apTimer      *sim.Timer
	requestTimer *sim.Timer

	// Request cycling.
	cursor int

	// Scheduled cooperative responses, suppressible on overhear. Records
	// recycle through respFree once fired or suppressed.
	pending  map[respKey]*pendingResp
	respFree *pendingResp

	// Frame-combining soft buffers (nil until first corrupted copy).
	combiner map[combinerKey]*combinerState

	// Scratch buffer reused across protocol rounds.
	missScratch []uint32

	stats Stats
}

// pendingResp is one scheduled cooperative RESPONSE. Suppression (another
// cooperator answered first) flips cancelled instead of cancelling the
// underlying pooled event; the firing then just recycles the record.
type pendingResp struct {
	n         *Node
	dst       packet.NodeID
	seq       uint32
	payload   []byte
	cancelled bool
	next      *pendingResp
}

// respFire is the shared pooled-event callback for cooperative responses.
func respFire(arg any) {
	r := arg.(*pendingResp)
	n := r.n
	if !r.cancelled {
		delete(n.pending, respKey{dst: r.dst, seq: r.seq})
		if err := n.port.Send(packet.NewResponse(n.cfg.ID, r.dst, r.seq, r.payload)); err == nil {
			n.stats.ResponsesSent++
		}
	}
	r.payload = nil
	r.next = n.respFree
	n.respFree = r
}

// getResp pops a recycled response record.
func (n *Node) getResp(dst packet.NodeID, seq uint32, payload []byte) *pendingResp {
	r := n.respFree
	if r == nil {
		r = &pendingResp{n: n}
	} else {
		n.respFree = r.next
	}
	r.dst, r.seq, r.payload, r.cancelled, r.next = dst, seq, payload, false, nil
	return r
}

// NewNode validates the configuration and returns a stopped node; call
// Start to begin beaconing.
func NewNode(cfg Config, deps Deps) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if deps.Ctx == nil {
		return nil, fmt.Errorf("carq: nil sim context")
	}
	if deps.Port == nil {
		return nil, fmt.Errorf("carq: nil port")
	}
	if deps.RNG == nil {
		return nil, fmt.Errorf("carq: nil RNG")
	}
	if cfg.CandidateTTL == 0 {
		cfg.CandidateTTL = 3 * helloInterval
	}
	if cfg.Selection == nil {
		cfg.Selection = SelectAll{}
	}
	if cfg.FCModulation.BitRate == 0 {
		cfg.FCModulation = radio.DSSS1Mbps
	}
	obs := deps.Observer
	if obs == nil {
		obs = NopObserver{}
	}
	n := &Node{
		cfg:        cfg,
		ctx:        deps.Ctx,
		port:       deps.Port,
		rng:        deps.RNG,
		obs:        obs,
		phase:      PhaseIdle,
		serveOrder: make(map[packet.NodeID]int),
		serveSeen:  make(map[packet.NodeID]time.Duration),
		have:       make(map[uint32][]byte),
		forOthers:  make(map[packet.NodeID]map[uint32][]byte),
		pending:    make(map[respKey]*pendingResp),
	}
	n.helloTimer = deps.Ctx.NewTimer(n.helloTick)
	n.apTimer = deps.Ctx.NewTimer(n.onAPTimeout)
	n.requestTimer = deps.Ctx.NewTimer(n.issueRequest)
	return n, nil
}

// Start begins HELLO beaconing. It is a no-op when cooperation is
// disabled (the no-coop baseline neither beacons nor cooperates).
func (n *Node) Start() {
	if !n.cfg.CoopEnabled {
		return
	}
	n.scheduleHello(n.jitter(helloInterval / 2))
}

// Phase returns the current protocol phase.
func (n *Node) Phase() Phase { return n.phase }

// Stats returns a snapshot of the protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// HaveCount returns the number of distinct own-flow packets held.
func (n *Node) HaveCount() int { return len(n.have) }

// recoveryLo returns the lower bound of the recovery range: the block's
// known first sequence when configured, otherwise the node's own first
// direct reception.
func (n *Node) recoveryLo() uint32 {
	if n.cfg.KnownFirstSeq > 0 && n.cfg.KnownFirstSeq < n.ownMin {
		return n.cfg.KnownFirstSeq
	}
	return n.ownMin
}

// missingInto appends the missing list to out (which callers on the hot
// path pass in as a reusable scratch slice).
func (n *Node) missingInto(out []uint32) []uint32 {
	if !n.ownSeen {
		return out
	}
	lo, hi := n.recoveryLo(), n.ownMax
	for w := n.wordOf(lo); w <= n.wordOf(hi); w++ {
		base := n.heldBase + uint32(w)<<6
		for m := n.gapWord(w, lo, hi); m != 0; m &= m - 1 {
			out = append(out, base+uint32(bits.TrailingZeros64(m)))
		}
	}
	return out
}

// MissingCount returns the length of the missing list without allocating.
func (n *Node) MissingCount() int {
	if !n.ownSeen {
		return 0
	}
	lo, hi := n.recoveryLo(), n.ownMax
	c := 0
	for w := n.wordOf(lo); w <= n.wordOf(hi); w++ {
		c += bits.OnesCount64(n.gapWord(w, lo, hi))
	}
	return c
}

// wordOf returns the heldBits word holding seq, which must lie in the
// window heldBits covers.
func (n *Node) wordOf(seq uint32) int { return int((seq - n.heldBase) >> 6) }

// gapWord returns the sequences of word w that are not held, restricted
// to [lo, hi].
func (n *Node) gapWord(w int, lo, hi uint32) uint64 {
	m := ^n.heldBits[w]
	base := n.heldBase + uint32(w)<<6
	if lo > base {
		m &= ^uint64(0) << (lo - base)
	}
	if hi-base < 63 {
		m &= ^uint64(0) >> (63 - (hi - base))
	}
	return m
}

// hold stores own-flow packet seq. A direct reception (DATA off the air,
// or combined from corrupted DATA copies) also widens the recovery window.
func (n *Node) hold(seq uint32, payload []byte, direct bool) {
	n.have[seq] = payload
	if direct {
		if !n.ownSeen {
			n.ownMin, n.ownMax, n.ownSeen = seq, seq, true
		} else {
			n.ownMin = min(n.ownMin, seq)
			n.ownMax = max(n.ownMax, seq)
		}
		n.coverWindow()
	}
	n.markHeld(seq)
}

// markHeld sets seq's bit when heldBits covers it. A packet outside the
// window (a RESPONSE for a sequence the window has not reached) stays in
// have alone until coverWindow reaches it.
func (n *Node) markHeld(seq uint32) {
	if seq < n.heldBase {
		return
	}
	if w := n.wordOf(seq); w < len(n.heldBits) {
		n.heldBits[w] |= 1 << (seq & 63)
	}
}

// coverWindow grows heldBits to span the recovery window [recoveryLo,
// ownMax] and fills the new words from have. The window only widens
// (ownMin falls, ownMax rises, KnownFirstSeq is fixed), so the bitset
// stays (ownMax-recoveryLo)/64 + 2 words at most, whatever the absolute
// sequence numbers.
func (n *Node) coverWindow() {
	lo := n.recoveryLo() &^ 63
	if len(n.heldBits) == 0 {
		n.heldBase = lo
	}
	if front := int((n.heldBase - lo) >> 6); front > 0 {
		n.heldBits = append(make([]uint64, front, front+len(n.heldBits)), n.heldBits...)
		n.heldBase = lo
		n.fillHeld(0, front)
	}
	if want := n.wordOf(n.ownMax) + 1; want > len(n.heldBits) {
		old := len(n.heldBits)
		n.heldBits = append(n.heldBits, make([]uint64, want-old)...)
		n.fillHeld(old, want)
	}
}

// fillHeld sets the bits of words [from, to) from have.
func (n *Node) fillHeld(from, to int) {
	end := uint64(n.heldBase) + 64*uint64(to)
	for u := uint64(n.heldBase) + 64*uint64(from); u < end; u++ {
		if _, ok := n.have[uint32(u)]; ok {
			n.markHeld(uint32(u))
		}
	}
}

// HandleFrame implements mac.Handler: the node's single entry point for
// every frame its radio decodes (promiscuous).
func (n *Node) HandleFrame(f *packet.Frame, meta mac.RxMeta) {
	if meta.Corrupt {
		n.onCorruptFrame(f, meta.SINRdB)
		return
	}
	switch f.Type {
	case packet.TypeData:
		n.onData(f)
	case packet.TypeHello:
		n.onHello(f, meta)
	case packet.TypeRequest:
		n.onRequest(f)
	case packet.TypeResponse:
		n.onResponse(f)
	}
}

// --- Reception phase ---------------------------------------------------

func (n *Node) onData(f *packet.Frame) {
	// Hearing any AP DATA frame means coverage: (re-)arm the AP timeout
	// and make sure we are in the Reception phase. This also applies to
	// the no-coop baseline, which still receives its own flow.
	n.onAPContact()
	if f.Flow == n.cfg.ID {
		if _, dup := n.have[f.Seq]; dup {
			n.stats.DataDuplicate++
			return
		}
		n.hold(f.Seq, f.Payload, true)
		n.stats.DataDirect++
		return
	}
	if !n.cfg.CoopEnabled {
		return
	}
	// Buffer for platoon members that recruited us (or for everyone,
	// under the BufferForAll ablation).
	if _, serving := n.serveOrder[f.Flow]; serving || n.cfg.BufferForAll {
		n.bufferFor(f.Flow, f.Seq, f.Payload)
	}
}

func (n *Node) bufferFor(flow packet.NodeID, seq uint32, payload []byte) {
	m, ok := n.forOthers[flow]
	if !ok {
		m = make(map[uint32][]byte)
		n.forOthers[flow] = m
	}
	if _, dup := m[seq]; dup {
		return
	}
	m[seq] = payload
	n.stats.DataBuffered++
}

func (n *Node) onAPContact() {
	n.apTimer.Reset(apTimeout)
	if n.phase != PhaseReception {
		n.setPhase(PhaseReception)
		// Entering coverage ends the requesting cycle (the paper: a node
		// stops issuing requests when it enters the range of a new AP).
		n.stopRequesting()
	}
}

func (n *Node) onAPTimeout() {
	if n.phase != PhaseReception {
		return
	}
	n.setPhase(PhaseCoopARQ)
	if !n.cfg.CoopEnabled {
		return
	}
	if n.MissingCount() == 0 {
		n.obs.OnComplete(n.cfg.ID, n.ctx.Now())
		return
	}
	n.cursor = 0
	n.stats.RequestCyclesStarted++
	n.scheduleRequest(0)
}

func (n *Node) setPhase(p Phase) {
	if n.phase == p {
		return
	}
	from := n.phase
	n.phase = p
	n.stats.PhaseTransitions++
	n.obs.OnPhaseChange(n.cfg.ID, from, p, n.ctx.Now())
}

// --- HELLO handling and cooperator management ---------------------------

func (n *Node) onHello(f *packet.Frame, meta mac.RxMeta) {
	if !n.cfg.CoopEnabled || f.Src == n.cfg.ID {
		return
	}
	now := n.ctx.Now()
	i, ok := slices.BinarySearchFunc(n.cands, f.Src, func(c Candidate, id packet.NodeID) int {
		return cmp.Compare(c.ID, id)
	})
	if !ok {
		n.cands = slices.Insert(n.cands, i, Candidate{ID: f.Src, FirstHeard: now})
	}
	n.cands[i].LastHeard = now
	n.cands[i].RxPowerDBm = meta.RxPowerDBm
	n.refreshCooperators()

	// Second HELLO function: the sender's list tells us whether we must
	// act as its cooperator, and with which response order.
	idx := -1
	for i, id := range f.List {
		if id == n.cfg.ID {
			idx = i
			break
		}
	}
	if idx >= 0 {
		n.serveOrder[f.Src] = idx
		n.serveSeen[f.Src] = now
	} else {
		delete(n.serveOrder, f.Src)
		delete(n.serveSeen, f.Src)
	}
}

// refreshCooperators prunes stale candidates and re-runs the selection
// policy over the live, ID-sorted candidate list (selection policies copy
// their input); only the policy's own result allocates.
func (n *Node) refreshCooperators() {
	now := n.ctx.Now()
	n.cands = slices.DeleteFunc(n.cands, func(c Candidate) bool {
		return now-c.LastHeard > n.cfg.CandidateTTL
	})
	n.myCoops = n.cfg.Selection.Select(n.cands)

	// Also expire serving relationships whose HELLOs went silent.
	for id, seen := range n.serveSeen {
		if now-seen > n.cfg.CandidateTTL {
			delete(n.serveOrder, id)
			delete(n.serveSeen, id)
		}
	}
}

func (n *Node) scheduleHello(d time.Duration) {
	n.helloTimer.Reset(d)
}

func (n *Node) helloTick() {
	n.refreshCooperators()
	if err := n.port.Send(packet.NewHello(n.cfg.ID, n.myCoops)); err == nil {
		n.stats.HellosSent++
	}
	n.scheduleHello(n.jitter(helloInterval))
}

// jitter returns d scaled uniformly into [0.9d, 1.1d].
func (n *Node) jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*n.rng.Float64()))
}

// --- Cooperative-ARQ phase: requesting ----------------------------------

func (n *Node) scheduleRequest(d time.Duration) {
	n.requestTimer.Reset(d)
}

func (n *Node) stopRequesting() {
	n.requestTimer.Stop()
}

func (n *Node) issueRequest() {
	if n.phase != PhaseCoopARQ {
		return
	}
	missing := n.missingInto(n.missScratch[:0])
	n.missScratch = missing
	if len(missing) == 0 {
		n.obs.OnComplete(n.cfg.ID, n.ctx.Now())
		return
	}
	if n.cursor >= len(missing) {
		// End of the (actualised, shorter) list: restart from the top,
		// as the paper prescribes.
		n.cursor = 0
	}
	lo, hi := n.cursor, n.cursor+1
	if n.cfg.BatchRequests {
		hi = n.cursor + n.cfg.MaxBatch
		if hi > len(missing) {
			hi = len(missing)
		}
	}
	n.cursor = hi
	// The frame gets its own (small: one batch) copy of the sequences,
	// never a view of the scratch: the frame outlives this call in the
	// MAC queue and transmission history, and the next issueRequest
	// rewrites the scratch in place.
	seqs := append([]uint32(nil), missing[lo:hi]...)
	if err := n.port.Send(packet.NewRequest(n.cfg.ID, seqs)); err == nil {
		n.stats.RequestsSent++
		n.stats.RequestSeqsSent += uint64(len(seqs))
	}
	n.scheduleRequest(n.responseWindow(len(seqs)))
}

// responseWindow sizes the quiet period after a REQUEST: enough for every
// cooperator order to take its back-off slot and for the expected
// responses to air.
func (n *Node) responseWindow(requested int) time.Duration {
	orders := len(n.myCoops)
	if orders == 0 {
		orders = 1
	}
	return time.Duration(orders)*coopSlot +
		time.Duration(requested)*perResponseTime +
		requestSpacing
}

// --- Cooperative-ARQ phase: responding ----------------------------------

func (n *Node) onRequest(f *packet.Frame) {
	if !n.cfg.CoopEnabled || f.Src == n.cfg.ID {
		return
	}
	order, serving := n.serveOrder[f.Src]
	if !serving {
		return
	}
	buf := n.forOthers[f.Src]
	if len(buf) == 0 {
		return
	}
	held := 0
	for _, seq := range f.Seqs {
		payload, ok := buf[seq]
		if !ok {
			continue
		}
		key := respKey{dst: f.Src, seq: seq}
		if _, already := n.pending[key]; already {
			continue
		}
		delay := time.Duration(order)*coopSlot +
			time.Duration(held)*perResponseTime
		held++
		r := n.getResp(f.Src, seq, payload)
		n.pending[key] = r
		n.ctx.ScheduleCall(delay, respFire, r)
	}
}

func (n *Node) onResponse(f *packet.Frame) {
	if f.Dst == n.cfg.ID {
		if _, dup := n.have[f.Seq]; dup {
			n.stats.RecoveredDuplicate++
			return
		}
		n.hold(f.Seq, f.Payload, false)
		n.stats.Recovered++
		n.obs.OnRecovered(n.cfg.ID, f.Seq, f.Src, n.ctx.Now())
		if n.phase == PhaseCoopARQ && n.MissingCount() == 0 {
			n.stopRequesting()
			n.obs.OnComplete(n.cfg.ID, n.ctx.Now())
		}
		return
	}
	if !n.cfg.CoopEnabled {
		return
	}
	// Overheard response to someone else: suppress our own pending
	// response for the same packet — another cooperator got there first.
	key := respKey{dst: f.Dst, seq: f.Seq}
	if r, ok := n.pending[key]; ok {
		if !r.cancelled {
			r.cancelled = true
			n.stats.ResponsesSuppressed++
		}
		delete(n.pending, key)
	}
}

var _ mac.Handler = (*Node)(nil)
