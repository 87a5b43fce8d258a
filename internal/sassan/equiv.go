package sassan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Injection-site equivalence classes. Two sites whose fault-propagation
// shadows canonicalize to the same content hash — same site opcode and
// guard shape, same corrupt-target shape, same event sequence of
// (distance, opcode, role) — share dynamic classification shape, so an
// adaptive campaign samples them as one stratum. The ID
// is a pure content hash of that canonical form: the analysis is
// deterministic, so every shard of a distributed campaign derives the
// identical ID for the identical class with no coordination. IDs are
// kernel-local — a campaign groups by (kernel, class ID).

// Class is one equivalence class of injection sites within a kernel.
type Class struct {
	// ID is the canonical content hash ("c" + 16 hex digits).
	ID string
	// Kind is the members' common shadow kind.
	Kind ShadowKind
	// Masked reports a provably-masked class (Shadow.Masked): every
	// injection in it is Masked by construction, the generalization of
	// a dead destination.
	Masked bool
	// Sites lists the member instruction indexes, ascending. The lowest
	// member is the class's canonical representative site.
	Sites []int
	// Shadow is the lowest member's shadow (all members share its shape).
	Shadow *Shadow
}

// Rep returns the canonical representative site (the lowest member).
func (c *Class) Rep() int { return c.Sites[0] }

// ClassTable holds one kernel's classes and the per-site membership map.
type ClassTable struct {
	// Kernel is the kernel name.
	Kernel string
	// Classes is sorted by lowest member site.
	Classes []*Class
	// Candidates counts sites with corruptible destinations (the
	// injectable sites the pass examined).
	Candidates int
	// Unclassable lists candidate sites whose shadow disqualified them
	// (control escalation, cut closure, opaque reader, dirty sink),
	// ascending. These always run individually.
	Unclassable []int

	bySite map[int]*Class
}

// ClassOf returns the class containing site, or nil if the site is
// unclassable or has no corruptible destinations.
func (t *ClassTable) ClassOf(site int) *Class { return t.bySite[site] }

// ShadowID canonicalizes a shadow into its class ID. Sites with equal IDs
// within a kernel are class members of each other.
func (a *Analysis) ShadowID(sh *Shadow) string {
	in := &a.Kernel.Instrs[sh.Site]
	h := sha256.New()
	var buf [8]byte
	putU16 := func(v uint16) {
		binary.BigEndian.PutUint16(buf[:2], v)
		h.Write(buf[:2])
	}
	putU32 := func(v uint32) {
		binary.BigEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	putU16(uint16(in.Op))
	flags := byte(0)
	if !in.Guard.True() {
		flags |= 1
	}
	if sh.Masked() {
		flags |= 2
	}
	h.Write([]byte{byte(sh.Kind), flags,
		byte(len(sh.TargetGP.Regs())), byte(len(sh.TargetPR.Preds()))})
	for _, ev := range sh.Events {
		putU32(uint32(ev.Delta))
		putU16(uint16(ev.Op))
		h.Write([]byte{byte(ev.Role)})
	}
	sum := h.Sum(nil)
	return "c" + hex.EncodeToString(sum[:8])
}

// BuildClassTable groups the kernel's classable injection sites into
// equivalence classes. The result is deterministic: classes are keyed by
// content hash and listed by lowest member site.
func (a *Analysis) BuildClassTable() *ClassTable {
	t := &ClassTable{Kernel: a.Kernel.Name, bySite: make(map[int]*Class)}
	byID := make(map[string]*Class)
	for i := range a.Kernel.Instrs {
		gp, pr := CorruptTargets(&a.Kernel.Instrs[i])
		if gp.Empty() && pr.Empty() {
			continue
		}
		t.Candidates++
		sh := a.ShadowOf(i)
		if !sh.Classable() {
			t.Unclassable = append(t.Unclassable, i)
			continue
		}
		id := a.ShadowID(sh)
		c := byID[id]
		if c == nil {
			c = &Class{ID: id, Kind: sh.Kind, Masked: sh.Masked(), Shadow: sh}
			byID[id] = c
			t.Classes = append(t.Classes, c)
		}
		c.Sites = append(c.Sites, i)
		t.bySite[i] = c
	}
	sort.Slice(t.Classes, func(x, y int) bool {
		return t.Classes[x].Sites[0] < t.Classes[y].Sites[0]
	})
	return t
}
