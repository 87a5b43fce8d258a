// Package modcache is the cross-context module cache: the amortization
// layer that lets an N-experiment campaign pay the fixed
// assemble/encode/decode cost once instead of N times.
//
// A fault-injection campaign creates a fresh cuda.Context per experiment
// (isolation is the point), but every experiment loads the same modules:
// without a cache each run repeats sass.Assemble + Codec.EncodeProgram,
// re-decodes every module binary in the NVBit attach path, and builds two
// fresh per-family Codecs. All of those are pure functions of their inputs,
// so their results are memoized here, content-addressed by family and
// input (the source text or the binary's bytes themselves):
//
//   - Codec(family) pools the per-family encoding.Codec, which is immutable
//     after construction.
//   - Assemble(family, name, source) memoizes sass.Assemble followed by
//     EncodeProgram.
//   - Decode(family, binary) memoizes Codec.DecodeProgram.
//
// The cached *sass.Program values (and the encoded binaries) are shared,
// read-only state: callers on any context or goroutine receive the same
// pointers and must not mutate them. This matches the existing engine
// contract — instrumentation and fault injection rewrite Clone()d kernels,
// never the decoded originals — and is guarded by race-mode differential
// tests in internal/campaign.
//
// Facts derived from those shared programs and kernels — a kernel's content
// hash, a program's function table — are memoized here too, by the identity
// of the shared object (Derive), and live exactly as long as the object
// stays cached: Reset drops them with it, so the cache is the only
// process-lifetime owner of decoded code.
//
// Concurrent callers of the same key block on a per-entry sync.Once, so a
// parallel campaign's first wave builds each module exactly once.
package modcache

import (
	"crypto/sha256"
	"sync"

	"repro/internal/sass"
	"repro/internal/sass/encoding"
)

// Stats reports cache effectiveness: hits are calls served from a
// previously created entry, builds are calls that created one. A call that
// arrives while another goroutine is still building the same entry counts
// as a hit (it reuses that build).
type Stats struct {
	CodecHits, CodecBuilds       uint64
	AssembleHits, AssembleBuilds uint64
	DecodeHits, DecodeBuilds     uint64
	PlanHits, PlanBuilds         uint64
}

// Cache memoizes codec construction, assembly+encoding, and decoding.
// The zero value is not usable; call New.
type Cache struct {
	mu     sync.Mutex
	codecs map[sass.Family]*codecEntry
	asm    map[asmKey]*asmEntry
	dec    map[sass.Family]map[string]*decEntry // by family, then by the binary's bytes
	plans  map[PlanKey]*planEntry
	// owned holds the *sass.Program and *sass.Kernel pointers the asm and dec
	// entries handed out; derived holds the facts memoized on them.
	owned   map[any]struct{}
	derived map[derivedKey]*derivedEntry
	stats   Stats
}

// Shared is the process-wide cache used by the cuda and nvbit layers.
var Shared = New()

// New creates an empty cache.
func New() *Cache {
	return &Cache{
		codecs: make(map[sass.Family]*codecEntry),
		asm:    make(map[asmKey]*asmEntry),
		dec:    make(map[sass.Family]map[string]*decEntry),
		plans:  make(map[PlanKey]*planEntry),

		owned:   make(map[any]struct{}),
		derived: make(map[derivedKey]*derivedEntry),
	}
}

type codecEntry struct {
	once  sync.Once
	codec *encoding.Codec
	err   error
}

// asmKey holds the source text itself, not a digest of it: the map hashes the
// string in place (no byte-slice copy per LoadModule), a hit against the same
// string compares pointers, and the key keeps the text alive.
type asmKey struct {
	family sass.Family
	name   string
	src    string
}

type asmEntry struct {
	once sync.Once
	prog *sass.Program
	bin  []byte
	err  error
}

type decEntry struct {
	once sync.Once
	prog *sass.Program
	err  error
}

// Codec returns the shared per-family codec, building it on first use.
// Codecs are immutable after construction and safe for concurrent use.
func (c *Cache) Codec(f sass.Family) (*encoding.Codec, error) {
	c.mu.Lock()
	e, ok := c.codecs[f]
	if !ok {
		e = &codecEntry{}
		c.codecs[f] = e
		c.stats.CodecBuilds++
	} else {
		c.stats.CodecHits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.codec, e.err = encoding.NewCodec(f) })
	return e.codec, e.err
}

// Assemble memoizes sass.Assemble + Codec.EncodeProgram for the given
// family and source. The returned program and binary are shared read-only
// state; hit reports whether the entry already existed. Errors are cached
// too: assembly is deterministic, so a failing source fails identically on
// every retry.
func (c *Cache) Assemble(f sass.Family, name, src string) (prog *sass.Program, bin []byte, hit bool, err error) {
	key := asmKey{family: f, name: name, src: src}
	c.mu.Lock()
	e, ok := c.asm[key]
	if !ok {
		e = &asmEntry{}
		c.asm[key] = e
		c.stats.AssembleBuilds++
	} else {
		c.stats.AssembleHits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		p, err := sass.Assemble(name, src)
		if err != nil {
			e.err = err
			return
		}
		codec, err := c.Codec(f)
		if err != nil {
			e.err = err
			return
		}
		b, err := codec.EncodeProgram(p)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.bin = p, b
		c.own(p, func() bool { return c.asm[key] == e })
	})
	return e.prog, e.bin, ok, e.err
}

// Decode memoizes Codec.DecodeProgram for the given family and machine
// code. The returned program is shared read-only state; hit reports whether
// the entry already existed.
func (c *Cache) Decode(f sass.Family, bin []byte) (prog *sass.Program, hit bool, err error) {
	c.mu.Lock()
	// Like asmKey, the key is the content itself: string(bin) in a map index
	// does not copy, where a digest hashed the binary on every module load.
	e, ok := c.dec[f][string(bin)]
	if !ok {
		e = &decEntry{}
		if c.dec[f] == nil {
			c.dec[f] = make(map[string]*decEntry)
		}
		c.dec[f][string(bin)] = e
		c.stats.DecodeBuilds++
	} else {
		c.stats.DecodeHits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		codec, err := c.Codec(f)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.err = codec.DecodeProgram(bin)
		if e.err == nil {
			c.own(e.prog, func() bool { return c.dec[f][string(bin)] == e })
		}
	})
	return e.prog, ok, e.err
}

// own records a freshly built program and its kernels as shared objects that
// Derive may memoize on. current is evaluated under the lock: an entry that a
// concurrent Reset already dropped is not recorded, so a reset cache never
// comes to reference code it no longer hands out.
func (c *Cache) own(p *sass.Program, current func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !current() {
		return
	}
	c.owned[p] = struct{}{}
	for _, k := range p.Kernels {
		c.owned[k] = struct{}{}
	}
}

// derivedKey addresses one fact about one shared object: obj is the
// *sass.Program or *sass.Kernel, slot the deriving package's private name
// for the fact (a value of an unexported type, so packages cannot collide).
type derivedKey struct{ obj, slot any }

type derivedEntry struct {
	once sync.Once
	v    any
}

// Derive memoizes a pure function of a shared program or kernel by the
// object's identity: the first call for (obj, slot) runs build, every later
// one returns that value, until Reset forgets the object. The value is
// shared read-only state, like the object it was derived from.
//
// shared is false when obj is not a program or kernel this cache handed out —
// a private decode, a kernel built by hand, or one outliving a Reset. Such
// objects carry no immutability promise and nothing bounds their number, so
// nothing is memoized for them: every call runs build.
func (c *Cache) Derive(obj, slot any, build func() any) (v any, shared bool) {
	key := derivedKey{obj, slot}
	c.mu.Lock()
	if _, ok := c.owned[obj]; !ok {
		c.mu.Unlock()
		return build(), false
	}
	e := c.derived[key]
	if e == nil {
		e = &derivedEntry{}
		c.derived[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v, true
}

// PlanKey addresses one derived execution artifact: Engine names and
// versions the translation scheme (so an engine change invalidates every
// cached plan without flushing the module entries) and Hash is the content
// hash of the kernel the plan was compiled from.
type PlanKey struct {
	Engine string
	Hash   [sha256.Size]byte
}

type planEntry struct {
	once sync.Once
	v    any
	err  error
}

// Plan memoizes a derived per-kernel execution artifact — the gpu package
// caches its translated block plans here, content-addressed like the module
// entries, so a campaign's N contexts translate each kernel exactly once.
// The returned value is shared read-only state; hit reports whether the
// entry already existed. Errors are cached: translation is a pure function
// of the kernel, so a failing build fails identically on every retry.
func (c *Cache) Plan(key PlanKey, build func() (any, error)) (v any, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.plans[key]
	if !ok {
		e = &planEntry{}
		c.plans[key] = e
		c.stats.PlanBuilds++
	} else {
		c.stats.PlanHits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, ok, e.err
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset drops every entry, every derived fact, and zeroes the counters.
// Outstanding programs remain valid (they are never mutated); Reset only
// forgets them, so subsequent loads rebuild and the old programs, kernels and
// plans become collectable once their last user lets go. Tests and the
// benchmark's cold samples use this to measure cold paths.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.codecs = make(map[sass.Family]*codecEntry)
	c.asm = make(map[asmKey]*asmEntry)
	c.dec = make(map[sass.Family]map[string]*decEntry)
	c.plans = make(map[PlanKey]*planEntry)
	c.owned = make(map[any]struct{})
	c.derived = make(map[derivedKey]*derivedEntry)
	c.stats = Stats{}
}
