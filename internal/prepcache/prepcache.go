// Package prepcache is a process-wide content-addressed cache of the
// per-function artifacts the analysis front end (cfg.Build + ipet.Prepare)
// otherwise rebuilds from scratch for every program: the reconstructed CFG,
// the march block-cost table, and the structural flow rows pre-lowered to
// the solver's packed form. Artifacts are keyed by a SHA-256 hash of the
// function's *normalized* body — control-transfer targets are rewritten to
// position-independent form (branch displacements are already relative,
// jumps become function-relative offsets, calls become callee names) — so a
// function whose code merely moved because an unrelated function changed
// size still hits. That is what makes eviction-then-resubmission and
// one-function edit churn in the analysis service incremental: every
// unchanged function is reused, only the edited one is rebuilt.
//
// Cached artifacts are immutable and shared across programs and goroutines;
// anything address-dependent (block byte ranges, source lines, decoded
// instruction words) is re-derived per program when a CFG prototype is
// instantiated, so a cache-served FuncCFG is bit-identical to one built
// directly by cfg.BuildFunc.
package prepcache

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/ilp"
	"cinderella/internal/isa"
	"cinderella/internal/march"
)

// Key is a SHA-256 content address: of one function body in normalized
// (position-independent) form, of a program text, or of a solved LP
// (OutcomeStore).
type Key [sha256.Size]byte

// Artifact kinds of the in-memory tier; all five share one byte-capped
// LRU.
const (
	artExe uint8 = iota
	artProg
	artCFG
	artCost
	artRows
)

// artKey names one in-memory artifact: its kind, its content key, and — for
// cost tables only — the cost-model fingerprint.
type artKey struct {
	kind  uint8
	key   Key
	march string
}

// artifactCacheCap bounds the bytes of in-memory artifacts one Cache
// keeps. Executables and whole-program CFGs are the bulk: tens of
// kilobytes per program for the Table I sources, so the cap holds a few
// hundred programs — every recent edit of an edit-and-resubmit loop plus
// the bases it edits — while a stream of one-off edits can no longer grow
// the heap without bound. Evicted artifacts are rebuilt (or restored from
// the disk tier) on their next use. There is deliberately no option for it.
const artifactCacheCap = 16 << 20

// Stats is a point-in-time snapshot of cache effectiveness: artifact
// lookups served (Hits) vs built and inserted (Misses), the accounted
// resident bytes of the in-memory artifacts, the entry count across the
// five artifact kinds, the entries the byte cap evicted, and the
// persistent tier's ledger when a disk store is attached.
type Stats struct {
	Hits      int64
	Misses    int64
	Bytes     int64
	Entries   int
	Evictions int64
	Persist   PersistStats
}

// Cache holds immutable prepare artifacts, bounded by artifactCacheCap,
// plus the outcome store of the sessions prepared against it. The zero
// value is not usable; use New. All methods are safe for concurrent use.
type Cache struct {
	hits   atomic.Int64
	misses atomic.Int64

	// mu guards arts, the in-memory tier: every artifact kind in one
	// byte-accounted LRU.
	mu   sync.Mutex
	arts *lru[artKey, any]

	outcomes *OutcomeStore

	// pmu guards disk, the optional persistent tier (persist.go). Memory
	// hits never touch it; misses consult it before rebuilding.
	pmu  sync.RWMutex
	disk *diskStore
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{arts: newLRU[artKey, any](artifactCacheCap), outcomes: newOutcomeStore()}
}

var defaultCache = New()

// Default returns the process-wide cache shared by every Prepare.
func Default() *Cache { return defaultCache }

// Outcomes returns the solved-LP outcome store every session prepared
// against this cache shares.
func (c *Cache) Outcomes() *OutcomeStore { return c.outcomes }

// Reset drops every in-memory artifact and solved outcome and zeroes the
// memory counters. Benchmarks use it to measure a true cold path. An
// attached persistence directory (SetPersistDir) survives — resetting a
// persistent cache is exactly a process restart from the disk store's
// point of view.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.arts = newLRU[artKey, any](artifactCacheCap)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.outcomes.Reset()
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	n, bytes, ev := len(c.arts.m), c.arts.bytes, c.arts.evictions
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Bytes:     bytes,
		Entries:   n,
		Evictions: ev,
		Persist:   c.PersistStats(),
	}
}

// lookup returns the resident artifact under k, marking it most recently
// used.
func lookup[V any](c *Cache, k artKey) (V, bool) {
	c.mu.Lock()
	v, ok := c.arts.get(k)
	c.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	return v.(V), true
}

// insert publishes an artifact charged n bytes, keeping the incumbent if a
// concurrent insert won the race; the returned value is the resident one.
func insert[V any](c *Cache, k artKey, v V, n int64) V {
	c.mu.Lock()
	got, _ := c.arts.add(k, v, n)
	c.mu.Unlock()
	return got.(V)
}

// decodeBody decodes every instruction word of f in one pass. ok is false
// when the body is malformed (zero or unaligned size, undecodable word);
// such functions bypass the cache.
func decodeBody(exe *asm.Executable, f asm.Symbol) ([]isa.Instruction, bool) {
	if f.Size == 0 || f.Size%isa.WordBytes != 0 {
		return nil, false
	}
	instrs := make([]isa.Instruction, f.Size/isa.WordBytes)
	for i := range instrs {
		ins, err := exe.Instr(f.Addr + uint32(i)*isa.WordBytes)
		if err != nil {
			return nil, false
		}
		instrs[i] = ins
	}
	return instrs, true
}

// keyOfBody hashes an already-decoded body. The normalized encoding is
// accumulated into one buffer and hashed in a single write, which is far
// cheaper than streaming per-instruction records through the digest.
func keyOfBody(exe *asm.Executable, f asm.Symbol, instrs []isa.Instruction) (Key, bool) {
	buf := make([]byte, 0, 9*len(instrs)+16)
	end := f.Addr + f.Size
	for i := range instrs {
		ins := &instrs[i]
		pc := f.Addr + uint32(i)*isa.WordBytes
		switch ins.Op {
		case isa.OpJmp:
			// Absolute word target; normalize to a function-relative byte
			// offset so code motion does not change the key.
			target, _ := asm.BranchTarget(pc, *ins)
			if target < f.Addr || target >= end {
				return Key{}, false
			}
			var w [6]byte
			w[0] = 0xfe
			w[1] = byte(ins.Op)
			binary.LittleEndian.PutUint32(w[2:6], target-f.Addr)
			buf = append(buf, w[:]...)
		case isa.OpCall:
			// Absolute target; normalize to the callee's name, which is both
			// position-independent and exactly what the CFG edge records.
			target, _ := asm.BranchTarget(pc, *ins)
			callee, ok := exe.FunctionAt(target)
			if !ok || callee.Addr != target {
				return Key{}, false
			}
			var w [4]byte
			w[0] = 0xfd
			w[1] = byte(ins.Op)
			binary.LittleEndian.PutUint16(w[2:4], uint16(len(callee.Name)))
			buf = append(buf, w[:]...)
			buf = append(buf, callee.Name...)
		default:
			// Branch displacements are pc-relative and every other immediate
			// is a semantic constant: the decoded fields are already
			// position-independent.
			var w [9]byte
			w[0] = 0xff
			w[1] = byte(ins.Op)
			w[2] = ins.Rd
			w[3] = ins.Rs1
			w[4] = ins.Rs2
			binary.LittleEndian.PutUint32(w[5:9], uint32(ins.Imm))
			buf = append(buf, w[:]...)
		}
	}
	return sha256.Sum256(buf), true
}

// FuncKey computes the content key of a function body. ok is false when the
// body cannot be normalized — an undecodable word, a control transfer that
// leaves the function, or a call whose target is not a function entry; such
// functions bypass the cache (cfg.BuildFunc reports the precise error).
func FuncKey(exe *asm.Executable, f asm.Symbol) (Key, bool) {
	instrs, ok := decodeBody(exe, f)
	if !ok {
		return Key{}, false
	}
	return keyOfBody(exe, f, instrs)
}

// MarchFingerprint names everything of the cost model that shapes a block
// cost table: the cache geometry, the full timing profile (per-opcode
// latencies and penalties, not just the profile name), and the pipeline
// modelling flag.
func MarchFingerprint(o march.Options) string {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wi(o.Cache.SizeBytes)
	wi(o.Cache.LineBytes)
	wi(o.Cache.MissPenalty)
	if o.ModelPipeline {
		wi(1)
	} else {
		wi(0)
	}
	t := o.Timing
	if t == nil {
		t = isa.I960KB()
	}
	h.Write([]byte(t.Name))
	for op := 0; op < isa.NumOpcodes; op++ {
		wi(t.Exec[op])
	}
	wi(t.BranchTakenPenalty)
	wi(t.LoadUseStall)
	return string(h.Sum(nil))
}

// funcProto is one cached CFG in position-independent form: the built
// FuncCFG of the program that first presented this body, plus its start
// address so block ranges can be rebased. Everything address-independent
// (edges, in/out lists, dominators, loops, call list) is shared by every
// instantiation; blocks are rebuilt per program with rebased addresses,
// freshly decoded instructions, and the program's own source lines.
type funcProto struct {
	start uint32
	fc    *cfg.FuncCFG
	bytes int64
}

// instantiate builds a program-specific FuncCFG from the prototype. body is
// the decoded instruction stream of f in this program (one entry per text
// word), from which block instruction slices are copied without re-decoding.
func (p *funcProto) instantiate(exe *asm.Executable, f asm.Symbol, body []isa.Instruction) *cfg.FuncCFG {
	out := &cfg.FuncCFG{
		Name:      f.Name,
		Start:     f.Addr,
		Blocks:    make([]*cfg.Block, len(p.fc.Blocks)),
		Edges:     p.fc.Edges,
		EntryEdge: p.fc.EntryEdge,
		Loops:     p.fc.Loops,
		Calls:     p.fc.Calls,
		IDom:      p.fc.IDom,
	}
	for i, pb := range p.fc.Blocks {
		b := &cfg.Block{
			Index: pb.Index,
			Start: f.Addr + (pb.Start - p.start),
			End:   f.Addr + (pb.End - p.start),
			In:    pb.In,
			Out:   pb.Out,
		}
		lo := (pb.Start - p.start) / isa.WordBytes
		hi := (pb.End - p.start) / isa.WordBytes
		b.Instrs = make([]isa.Instruction, hi-lo)
		copy(b.Instrs, body[lo:hi])
		b.FirstLine = exe.Lines[b.Start]
		b.LastLine = exe.Lines[b.End-isa.WordBytes]
		out.Blocks[i] = b
	}
	return out
}

// Heap sizes the footprint estimates below charge, in bytes: a map entry
// (slot plus load-factor slack), a string or slice header, a decoded
// isa.Instruction, a cfg.Block, a cfg.Edge and a cfg.FuncCFG with its
// pointer, and one packed row header.
const (
	mapEntryBytes = 48
	instrBytes    = 8
	headerBytes   = 16
	blockBytes    = 120
	edgeBytes     = 72
	funcCFGBytes  = 176
	rowHdrBytes   = 56
)

// blocksBytes is what a FuncCFG's own blocks pin: the block structs, their
// decoded instructions, and their edge lists.
func blocksBytes(fc *cfg.FuncCFG) int64 {
	n := int64(len(fc.Blocks)) * blockBytes
	for _, b := range fc.Blocks {
		n += int64(len(b.Instrs))*instrBytes + int64(len(b.In)+len(b.Out))*8
	}
	return n
}

// protoBytes approximates the resident footprint of one CFG prototype.
func protoBytes(fc *cfg.FuncCFG) int64 {
	n := funcCFGBytes + blocksBytes(fc) + int64(len(fc.Edges))*edgeBytes + int64(len(fc.IDom)+len(fc.Calls))*8
	for i := range fc.Loops {
		n += 80 + int64(len(fc.Loops[i].Blocks)+len(fc.Loops[i].EntryEdges)+len(fc.Loops[i].BackEdges))*8
	}
	return n
}

// progBytes approximates what a whole-program entry pins beyond the CFG
// prototypes it shares: its maps and name list, and each function's own
// blocks (an instantiated FuncCFG shares edges, loops and dominators with
// its prototype but copies the blocks and their instructions).
func progBytes(pp *progProto) int64 {
	n := int64(len(pp.order)) * (2*mapEntryBytes + headerBytes + 32)
	for name, fc := range pp.funcs {
		n += int64(len(name)) + funcCFGBytes + blocksBytes(fc)
	}
	return n
}

// exeBytes approximates the resident footprint of a built executable: the
// memory image, the symbol table, the function list and the line map.
func exeBytes(exe *asm.Executable) int64 {
	n := int64(len(exe.Mem)) + int64(len(exe.Functions))*(headerBytes+16) + int64(len(exe.Lines))*mapEntryBytes
	for name := range exe.Symbols {
		n += mapEntryBytes + int64(len(name))
	}
	return n
}

// costsBytes is a cost table's footprint: three int64 per block plus the
// fingerprint string of its key.
func costsBytes(costs []march.BlockCost, marchFP string) int64 {
	return int64(len(costs))*24 + int64(len(marchFP)) + headerBytes
}

// rowsBytes is a row template's footprint: one int32 column and one
// float64 value per nonzero plus a header per row.
func rowsBytes(t *RowTemplate) int64 {
	return int64(t.NNZ)*12 + int64(len(t.Rows))*rowHdrBytes
}

// BuildFunc returns the program-specific CFG of f, serving the structure
// from the cache when an identical body was built before. hit reports a
// cache hit; miss results are inserted for the next program.
func (c *Cache) BuildFunc(exe *asm.Executable, f asm.Symbol) (fc *cfg.FuncCFG, hit bool, err error) {
	fc, _, _, hit, err = c.buildFunc(exe, f)
	return fc, hit, err
}

// buildFunc additionally reports the body key (keyed false when the body is
// uncacheable), so BuildProgram can record it for downstream artifact
// lookups without a second decode-and-hash pass.
func (c *Cache) buildFunc(exe *asm.Executable, f asm.Symbol) (fc *cfg.FuncCFG, key Key, keyed, hit bool, err error) {
	body, ok := decodeBody(exe, f)
	if ok {
		key, ok = keyOfBody(exe, f, body)
	}
	if !ok {
		fc, err = cfg.BuildFunc(exe, f)
		return fc, Key{}, false, false, err
	}
	if proto, ok := lookup[*funcProto](c, artKey{kind: artCFG, key: key}); ok {
		c.hits.Add(1)
		return proto.instantiate(exe, f, body), key, true, true, nil
	}
	// Disk tier: a prior process may have spilled this body's prototype.
	// A restored proto is promoted into memory and serves like any hit; a
	// corrupt or skewed entry is counted, deleted, and rebuilt below.
	if d := c.diskStore(); d != nil {
		if payload := d.load(KindCFG, key); payload != nil {
			if p, ok := decodeFuncProto(payload); ok {
				d.restored.Add(1)
				c.hits.Add(1)
				p = c.insertCFG(key, p)
				return p.instantiate(exe, f, body), key, true, true, nil
			}
			d.markCorrupt(KindCFG, key)
		}
	}
	c.misses.Add(1)
	fc, err = cfg.BuildFunc(exe, f)
	if err != nil {
		return nil, Key{}, false, false, err
	}
	p := &funcProto{start: f.Addr, fc: fc, bytes: protoBytes(fc)}
	c.insertCFG(key, p)
	if d := c.diskStore(); d != nil {
		d.spill(KindCFG, key, encodeFuncProto(p))
	}
	return fc, key, true, false, nil
}

// insertCFG publishes a CFG prototype, keeping the incumbent if a
// concurrent insert won the race; the returned proto is the resident one.
func (c *Cache) insertCFG(key Key, p *funcProto) *funcProto {
	return insert(c, artKey{kind: artCFG, key: key}, p, p.bytes)
}

// progProto is one fully-built program keyed by its text image. Every field
// is position-correct for any byte-identical image, so an identical
// resubmission (the serve eviction-churn case) reuses the finished FuncCFGs
// without decoding, hashing, or instantiating anything per function. The
// CFGs are immutable by convention; the Funcs map is cloned per program so
// a caller mutating its own map cannot corrupt the cache.
type progProto struct {
	funcs map[string]*cfg.FuncCFG
	order []string
	keys  map[string][32]byte
}

// imageKey hashes everything a whole-program CFG depends on: the text
// bytes, the function symbol table, and the per-instruction source lines.
func imageKey(exe *asm.Executable) (Key, bool) {
	text := int(exe.TextBytes)
	if text == 0 || len(exe.Mem) < text {
		return Key{}, false
	}
	buf := make([]byte, 0, 2*text+len(exe.Functions)*24)
	var w [8]byte
	binary.LittleEndian.PutUint32(w[0:4], exe.TextBytes)
	buf = append(buf, w[:4]...)
	buf = append(buf, exe.Mem[:text]...)
	for _, f := range exe.Functions {
		binary.LittleEndian.PutUint32(w[0:4], f.Addr)
		binary.LittleEndian.PutUint32(w[4:8], f.Size)
		buf = append(buf, w[:8]...)
		buf = append(buf, f.Name...)
		buf = append(buf, 0)
	}
	for pc := uint32(0); pc < exe.TextBytes; pc += isa.WordBytes {
		binary.LittleEndian.PutUint32(w[0:4], uint32(int32(exe.Lines[pc])))
		buf = append(buf, w[:4]...)
	}
	return sha256.Sum256(buf), true
}

// BuildProgram is a cfg.Build that reuses every function whose body is
// already cached — and, when the whole text image is byte-identical to one
// built before, the entire finished program. The returned Program wraps the
// caller's executable; all shared structure is immutable.
func (c *Cache) BuildProgram(exe *asm.Executable) (*cfg.Program, error) {
	ik, imageOK := imageKey(exe)
	if imageOK {
		if pp, ok := lookup[*progProto](c, artKey{kind: artProg, key: ik}); ok {
			c.hits.Add(1)
			funcs := make(map[string]*cfg.FuncCFG, len(pp.funcs))
			for name, fc := range pp.funcs {
				funcs[name] = fc
			}
			return &cfg.Program{Exe: exe, Funcs: funcs, Order: pp.order, BodyKeys: pp.keys}, nil
		}
	}
	p := &cfg.Program{
		Exe:      exe,
		Funcs:    make(map[string]*cfg.FuncCFG, len(exe.Functions)),
		BodyKeys: make(map[string][32]byte, len(exe.Functions)),
	}
	p.Order = make([]string, 0, len(exe.Functions))
	for _, f := range exe.Functions {
		fc, key, keyed, _, err := c.buildFunc(exe, f)
		if err != nil {
			return nil, err
		}
		if keyed {
			p.BodyKeys[f.Name] = key
		}
		p.Funcs[f.Name] = fc
		p.Order = append(p.Order, f.Name)
	}
	// Same validation as cfg.Build: every call target must be a known
	// function (instantiation preserves Callee names, so a cached function
	// is checked identically).
	for _, name := range p.Order {
		fc := p.Funcs[name]
		for _, id := range fc.Calls {
			callee := fc.Edges[id].Callee
			if _, ok := p.Funcs[callee]; !ok {
				return nil, &unknownCalleeError{fn: fc.Name, callee: callee}
			}
		}
	}
	if imageOK {
		pp := &progProto{funcs: p.Funcs, order: p.Order, keys: p.BodyKeys}
		insert(c, artKey{kind: artProg, key: ik}, pp, progBytes(pp))
		// The cached prototype shares the maps just handed to the caller;
		// hand the caller its own copy of the one it could plausibly mutate.
		funcs := make(map[string]*cfg.FuncCFG, len(p.Funcs))
		for name, fc := range p.Funcs {
			funcs[name] = fc
		}
		p.Funcs = funcs
	}
	return p, nil
}

type unknownCalleeError struct{ fn, callee string }

func (e *unknownCalleeError) Error() string {
	return "cfg: " + e.fn + " calls unknown function \"" + e.callee + "\""
}

// Costs returns the block cost table for a function body under the given
// cost model, computing and inserting it on first sight. The returned slice
// is shared and must not be mutated.
func (c *Cache) Costs(key Key, marchFP string, fc *cfg.FuncCFG, opts march.Options) (costs []march.BlockCost, hit bool) {
	ck := artKey{kind: artCost, key: key, march: marchFP}
	if costs, ok := lookup[[]march.BlockCost](c, ck); ok {
		c.hits.Add(1)
		return costs, true
	}
	dk := costDiskKey(key, marchFP)
	if d := c.diskStore(); d != nil {
		if payload := d.load(KindCost, dk); payload != nil {
			if restored, ok := decodeCosts(payload); ok && len(restored) == len(fc.Blocks) {
				d.restored.Add(1)
				c.hits.Add(1)
				return c.insertCosts(ck, restored), true
			}
			d.markCorrupt(KindCost, dk)
		}
	}
	c.misses.Add(1)
	costs = march.CostsOf(fc, opts)
	costs = c.insertCosts(ck, costs)
	if d := c.diskStore(); d != nil {
		d.spill(KindCost, dk, encodeCosts(costs))
	}
	return costs, false
}

func (c *Cache) insertCosts(ck artKey, costs []march.BlockCost) []march.BlockCost {
	return insert(c, ck, costs, costsBytes(costs, ck.march))
}

// RowTemplate is one function's structural flow rows — per block, the
// "count equals sum of in-edges" and "count equals sum of out-edges"
// equations of ipet's Section III.B system — pre-lowered to the solver's
// packed form in function-local variable numbering: block b is column b,
// edge e is column NB+e. Because the per-context global numbering lays a
// context's block columns and then its edge columns out contiguously,
// relocating a template row is a uniform column offset, which preserves the
// packed (sorted-column) invariant; values are shared untouched.
type RowTemplate struct {
	// NB and NE are the function's block and edge counts (NB+NE local
	// columns).
	NB, NE int
	// Rows holds 2*NB packed rows: for each block, its in-row then out-row.
	Rows []ilp.PackedRow
	// NNZ is the total nonzero count across Rows.
	NNZ int
}

// BuildRowTemplate lowers the function's flow rows in local numbering. The
// construction mirrors ipet's structural() row and coefficient order
// exactly and goes through ilp.Pack so normalization is identical. It is
// the direct (cache-bypassing) path for bodies that cannot be keyed.
func BuildRowTemplate(fc *cfg.FuncCFG) *RowTemplate {
	nb := len(fc.Blocks)
	cons := make([]ilp.Constraint, 0, 2*nb)
	for _, b := range fc.Blocks {
		in := ilp.Constraint{Coeffs: map[int]float64{b.Index: 1}, Rel: ilp.EQ}
		for _, e := range b.In {
			in.Coeffs[nb+e] -= 1
		}
		out := ilp.Constraint{Coeffs: map[int]float64{b.Index: 1}, Rel: ilp.EQ}
		for _, e := range b.Out {
			out.Coeffs[nb+e] -= 1
		}
		cons = append(cons, in, out)
	}
	t := &RowTemplate{NB: nb, NE: len(fc.Edges), Rows: ilp.Pack(cons)}
	for i := range t.Rows {
		t.NNZ += len(t.Rows[i].Cols)
	}
	return t
}

// Rows returns the structural row template for a function body, building
// and inserting it on first sight.
func (c *Cache) Rows(key Key, fc *cfg.FuncCFG) (t *RowTemplate, hit bool) {
	if t, ok := lookup[*RowTemplate](c, artKey{kind: artRows, key: key}); ok {
		c.hits.Add(1)
		return t, true
	}
	if d := c.diskStore(); d != nil {
		if payload := d.load(KindRows, key); payload != nil {
			if restored, ok := decodeRows(payload); ok && len(restored.Rows) == 2*len(fc.Blocks) {
				d.restored.Add(1)
				c.hits.Add(1)
				return c.insertRows(key, restored), true
			}
			d.markCorrupt(KindRows, key)
		}
	}
	c.misses.Add(1)
	t = BuildRowTemplate(fc)
	t = c.insertRows(key, t)
	if d := c.diskStore(); d != nil {
		d.spill(KindRows, key, encodeRows(t))
	}
	return t, false
}

func (c *Cache) insertRows(key Key, t *RowTemplate) *RowTemplate {
	return insert(c, artKey{kind: artRows, key: key}, t, rowsBytes(t))
}

// ExeKey hashes a program text plus the frontend mode ("asm", "cc",
// "cc-opt") that turns it into an image: the content address of the
// compiled executable artifact.
func ExeKey(mode, text string) Key {
	h := sha256.New()
	h.Write([]byte(mode))
	h.Write([]byte{0})
	h.Write([]byte(text))
	var k Key
	h.Sum(k[:0])
	return k
}

// Executable returns the built image for a program text, serving it from
// memory or the disk tier when an identical (mode, text) pair was built
// before — a restarted daemon skips the whole compile/assemble frontend.
// build runs only on a full miss. The returned executable is shared and
// must be treated as immutable.
func (c *Cache) Executable(mode, text string, build func() (*asm.Executable, error)) (exe *asm.Executable, hit bool, err error) {
	key := ExeKey(mode, text)
	if exe, ok := lookup[*asm.Executable](c, artKey{kind: artExe, key: key}); ok {
		c.hits.Add(1)
		return exe, true, nil
	}
	if d := c.diskStore(); d != nil {
		if payload := d.load(KindExe, key); payload != nil {
			if restored, ok := decodeExe(payload); ok {
				d.restored.Add(1)
				c.hits.Add(1)
				return c.insertExe(key, restored), true, nil
			}
			d.markCorrupt(KindExe, key)
		}
	}
	c.misses.Add(1)
	exe, err = build()
	if err != nil {
		return nil, false, err
	}
	exe = c.insertExe(key, exe)
	if d := c.diskStore(); d != nil {
		d.spill(KindExe, key, encodeExe(exe))
	}
	return exe, false, nil
}

func (c *Cache) insertExe(key Key, exe *asm.Executable) *asm.Executable {
	return insert(c, artKey{kind: artExe, key: key}, exe, exeBytes(exe))
}

// AppendRelocated writes the template's rows into dst[at:] with every
// column shifted by off, drawing the relocated column slices from colArena
// (which must have t.NNZ free capacity at nz). Values are shared with the
// template. It returns the arena cursor after the last row.
func (t *RowTemplate) AppendRelocated(dst []ilp.PackedRow, at int, colArena []int32, nz int, off int32) int {
	for i := range t.Rows {
		src := &t.Rows[i]
		cols := colArena[nz : nz+len(src.Cols) : nz+len(src.Cols)]
		for j, col := range src.Cols {
			cols[j] = col + off
		}
		nz += len(src.Cols)
		dst[at+i] = ilp.PackedRow{Cols: cols, Vals: src.Vals, Rel: src.Rel, RHS: src.RHS}
	}
	return nz
}
