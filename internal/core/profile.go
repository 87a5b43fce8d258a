// Package core implements NVBitFI itself: the profiler that builds
// dynamic instruction profiles (exact and approximate), injection-site
// selection over a profile, the transient-fault injector (Table II of the
// paper), the permanent-fault injector (Table III), and the paper's
// future-work extensions (intermittent faults, multi-opcode permanent
// faults, fault dictionaries, thread targeting).
package core

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sass"
)

// ProfileMode selects exact or approximate profiling.
type ProfileMode uint8

// Profiling modes (Section III-A of the paper).
const (
	// Exact counts every dynamic instruction of every dynamic kernel.
	Exact ProfileMode = iota + 1
	// Approximate counts only the first dynamic instance of each static
	// kernel and assumes subsequent instances repeat the same counts.
	Approximate
)

func (m ProfileMode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Approximate:
		return "approximate"
	default:
		return fmt.Sprintf("ProfileMode(%d)", uint8(m))
	}
}

// KernelRecord is one profile line: the per-opcode thread-level executed
// instruction counts of one dynamic kernel. Instructions whose guard
// predicate suppressed them are not counted, per the paper.
type KernelRecord struct {
	Kernel      string
	LaunchIndex int

	// OpCounts holds one entry per opcode that issued in the launch, in
	// ascending Op order with no opcode twice — the order WriteTo prints and
	// ParseProfile restores. An opcode whose issues all had no lane active
	// has an entry counting zero; one that never issued has none.
	OpCounts []OpCount

	// SiteOps and SiteCounts, when present, break the record down per
	// static instruction: SiteOps[i] is the opcode of instruction i of the
	// kernel and SiteCounts[i] its thread-level dynamic execution count.
	// They let injection-site selection resolve a dynamic index to a static
	// instruction without replaying the program, which site-resolved
	// campaigns (fault models, checkpointing, adaptive strata) need. Older profiles lack them.
	SiteOps    []sass.Op
	SiteCounts []uint64

	// Extrapolated marks approximate-mode records copied from the first
	// dynamic instance of the static kernel rather than measured.
	Extrapolated bool
}

// OpCount is one opcode's thread-level executed instruction count.
type OpCount struct {
	Op    sass.Op
	Count uint64
}

// HasSites reports whether the record carries the per-static-instruction
// breakdown.
func (r *KernelRecord) HasSites() bool { return len(r.SiteCounts) > 0 }

// Total returns the record's thread-level instruction count over a group.
func (r *KernelRecord) Total(g sass.Group) uint64 {
	var n uint64
	for _, c := range r.OpCounts {
		if sass.GroupContains(g, c.Op) {
			n += c.Count
		}
	}
	return n
}

// Profile is a program's dynamic instruction profile: one record per
// dynamic kernel, in launch order. It defines the uniform distribution of
// dynamic faults that injection sites are sampled from.
type Profile struct {
	Program string
	Mode    ProfileMode
	Records []KernelRecord
}

// TotalInstrs returns the profile-wide thread-level instruction count for a
// group — the paper's N for fault selection.
func (p *Profile) TotalInstrs(g sass.Group) uint64 {
	var n uint64
	for i := range p.Records {
		n += p.Records[i].Total(g)
	}
	return n
}

// ExecutedOpcodes returns every opcode with a nonzero dynamic count,
// ordered by Op value. A permanent-fault campaign iterates exactly this
// set, skipping the family's unused opcodes (Section IV-C).
func (p *Profile) ExecutedOpcodes() []sass.Op {
	var ops []sass.Op
	for op, c := range p.OpcodeTotals() {
		if c > 0 {
			ops = append(ops, op)
		}
	}
	slices.Sort(ops)
	return ops
}

// OpcodeTotals returns profile-wide dynamic counts per opcode, used to
// weight permanent-fault outcomes by activation likelihood (Figure 3).
func (p *Profile) OpcodeTotals() map[sass.Op]uint64 {
	totals := make(map[sass.Op]uint64)
	for i := range p.Records {
		for _, c := range p.Records[i].OpCounts {
			totals[c.Op] += c.Count
		}
	}
	return totals
}

// StaticKernels returns the distinct kernel names, in first-launch order.
func (p *Profile) StaticKernels() []string {
	var names []string
	seen := make(map[string]bool)
	for i := range p.Records {
		if !seen[p.Records[i].Kernel] {
			seen[p.Records[i].Kernel] = true
			names = append(names, p.Records[i].Kernel)
		}
	}
	return names
}

// DynamicKernels returns the number of dynamic kernel launches profiled.
func (p *Profile) DynamicKernels() int { return len(p.Records) }

// WriteTo serializes the profile in the one-line-per-dynamic-kernel text
// format of the paper's profiler output.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "# program: %s\n# mode: %s\n", p.Program, p.Mode)); err != nil {
		return n, err
	}
	for i := range p.Records {
		r := &p.Records[i]
		if err := count(fmt.Fprintf(bw, "%s; %d;", r.Kernel, r.LaunchIndex)); err != nil {
			return n, err
		}
		for _, c := range r.OpCounts {
			if err := count(fmt.Fprintf(bw, " %s=%d", c.Op, c.Count)); err != nil {
				return n, err
			}
		}
		if err := count(fmt.Fprintln(bw)); err != nil {
			return n, err
		}
		if r.HasSites() {
			// The per-site breakdown rides in a comment line so that older
			// parsers (which skip comments) still read the profile.
			if err := count(fmt.Fprintf(bw, "# sites:")); err != nil {
				return n, err
			}
			for i, c := range r.SiteCounts {
				if err := count(fmt.Fprintf(bw, " %d:%s=%d", i, r.SiteOps[i], c)); err != nil {
					return n, err
				}
			}
			if err := count(fmt.Fprintln(bw)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// String renders the profile in its text format.
func (p *Profile) String() string {
	var sb strings.Builder
	if _, err := p.WriteTo(&sb); err != nil {
		return "<error: " + err.Error() + ">"
	}
	return sb.String()
}

// ParseProfile reads the text format produced by WriteTo. A record line may
// list its opcodes in any order — they are stored ascending, so writing a
// parsed profile back out is canonical — but each at most once.
func ParseProfile(r io.Reader) (*Profile, error) {
	p := &Profile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# program:"):
			p.Program = strings.TrimSpace(strings.TrimPrefix(line, "# program:"))
			continue
		case strings.HasPrefix(line, "# mode:"):
			switch strings.TrimSpace(strings.TrimPrefix(line, "# mode:")) {
			case "exact":
				p.Mode = Exact
			case "approximate":
				p.Mode = Approximate
			default:
				return nil, fmt.Errorf("core: profile line %d: unknown mode", lineNo)
			}
			continue
		case strings.HasPrefix(line, "# sites:"):
			if len(p.Records) == 0 {
				return nil, fmt.Errorf("core: profile line %d: sites before any record", lineNo)
			}
			rec := &p.Records[len(p.Records)-1]
			for i, tok := range strings.Fields(strings.TrimPrefix(line, "# sites:")) {
				colon := strings.IndexByte(tok, ':')
				eq := strings.IndexByte(tok, '=')
				if colon < 0 || eq < colon {
					return nil, fmt.Errorf("core: profile line %d: bad site token %q", lineNo, tok)
				}
				idx, err := strconv.Atoi(tok[:colon])
				if err != nil || idx != i {
					return nil, fmt.Errorf("core: profile line %d: bad site index in %q", lineNo, tok)
				}
				op, ok := sass.LookupOp(tok[colon+1 : eq])
				if !ok {
					return nil, fmt.Errorf("core: profile line %d: unknown opcode %q", lineNo, tok[colon+1:eq])
				}
				c, err := strconv.ParseUint(tok[eq+1:], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("core: profile line %d: bad site count %q: %v", lineNo, tok, err)
				}
				rec.SiteOps = append(rec.SiteOps, op)
				rec.SiteCounts = append(rec.SiteCounts, c)
			}
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		parts := strings.SplitN(line, ";", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("core: profile line %d: want 'kernel; launch; counts'", lineNo)
		}
		launch, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("core: profile line %d: bad launch index: %v", lineNo, err)
		}
		rec := KernelRecord{
			Kernel:      strings.TrimSpace(parts[0]),
			LaunchIndex: launch,
		}
		for _, tok := range strings.Fields(parts[2]) {
			eq := strings.IndexByte(tok, '=')
			if eq < 0 {
				return nil, fmt.Errorf("core: profile line %d: bad count token %q", lineNo, tok)
			}
			op, ok := sass.LookupOp(tok[:eq])
			if !ok {
				return nil, fmt.Errorf("core: profile line %d: unknown opcode %q", lineNo, tok[:eq])
			}
			c, err := strconv.ParseUint(tok[eq+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("core: profile line %d: bad count %q: %v", lineNo, tok, err)
			}
			if slices.ContainsFunc(rec.OpCounts, func(c OpCount) bool { return c.Op == op }) {
				return nil, fmt.Errorf("core: profile line %d: opcode %s counted twice", lineNo, op)
			}
			rec.OpCounts = append(rec.OpCounts, OpCount{Op: op, Count: c})
		}
		slices.SortFunc(rec.OpCounts, func(a, b OpCount) int { return cmp.Compare(a.Op, b.Op) })
		p.Records = append(p.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading profile: %w", err)
	}
	return p, nil
}
