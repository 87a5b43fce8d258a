// Package specaccel implements scaled-down analogs of the 15 SpecACCEL
// OpenACC v1.2 benchmark programs the paper evaluates (Table IV). Each
// program is a real computation (stencil, lattice Boltzmann, conjugate
// gradient, ...) whose kernels are written in the SASS-like assembly and
// driven through the mini-CUDA API, with the paper's static-kernel counts
// preserved exactly and dynamic-kernel counts scaled down (documented per
// program) to keep campaigns laptop-sized. Every program carries the
// SDC-checking logic SpecACCEL ships with each benchmark: a tolerance-based
// comparison of output files and printed checksums.
package specaccel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
)

// ErrorPolicy selects how a program's host code treats CUDA errors, which
// drives the DUE-versus-potential-DUE split of Table V.
type ErrorPolicy uint8

// Error policies.
const (
	// Unchecked host code never checks CUDA errors: a device fault
	// surfaces, if at all, as corrupt output (potential DUE).
	Unchecked ErrorPolicy = iota + 1
	// Checked host code checks after the compute phase and exits nonzero
	// on any CUDA error (application-detected DUE).
	Checked
)

// Info is the Table IV row for a program.
type Info struct {
	Name        string
	Description string
	// PaperStaticKernels and PaperDynamicKernels are Table IV's values.
	PaperStaticKernels  int
	PaperDynamicKernels int
	// ScaledDynamicKernels is this implementation's dynamic launch count.
	ScaledDynamicKernels int
}

// Program is one SpecACCEL analog.
type Program struct {
	info   Info
	policy ErrorPolicy
	tol    float64
	fp64   bool // output files hold float64 values
	run    func(h *host) error
}

var _ campaign.Workload = (*Program)(nil)

// Name implements campaign.Workload.
func (p *Program) Name() string { return p.info.Name }

// Description implements campaign.Workload.
func (p *Program) Description() string { return p.info.Description }

// Info returns the program's Table IV row.
func (p *Program) Info() Info { return p.info }

// Run implements campaign.Workload.
func (p *Program) Run(ctx *cuda.Context) (*campaign.Output, error) {
	h := &host{ctx: ctx, out: campaign.NewOutput(), policy: p.policy}
	if err := p.run(h); err != nil {
		return h.out, err
	}
	if p.policy == Checked {
		if err := ctx.Synchronize(); err != nil {
			h.out.Printf("CUDA error: %v\n", err)
			h.out.ExitCode = 1
		}
	}
	return h.out, nil
}

// Check implements campaign.Workload: the SpecACCEL-style tolerance check.
// Output files are compared as float32 little-endian arrays with relative
// tolerance; stdout is compared token-wise with the same tolerance applied
// to numeric tokens.
func (p *Program) Check(golden, observed *campaign.Output) bool {
	if len(golden.Files) != len(observed.Files) {
		return false
	}
	for name, g := range golden.Files {
		o, ok := observed.Files[name]
		if !ok {
			return false
		}
		if p.fp64 {
			if !floatBytesClose64(g, o, p.tol) {
				return false
			}
		} else if !floatBytesClose(g, o, p.tol) {
			return false
		}
	}
	return stdoutClose(golden.Stdout, observed.Stdout, p.tol)
}

// floatBytesClose64 compares two byte buffers as float64 arrays with
// relative tolerance. It delegates to the allocation-free comparison
// primitives in internal/core shared by every classification path.
func floatBytesClose64(a, b []byte, tol float64) bool {
	return core.FloatBytesClose64(a, b, tol)
}

// floatBytesClose compares two byte buffers as float32 arrays with relative
// tolerance.
func floatBytesClose(a, b []byte, tol float64) bool {
	return core.FloatBytesClose32(a, b, tol)
}

// stdoutClose compares stdout token streams: non-numeric tokens must match
// exactly, numeric tokens within tolerance.
func stdoutClose(a, b string, tol float64) bool {
	return core.StdoutTokensClose(a, b, tol)
}

// host wraps the context with the per-policy error handling the programs
// share: an Unchecked program swallows API errors (and later emits whatever
// output it has), a Checked program records them for its final exit check.
type host struct {
	ctx    *cuda.Context
	out    *campaign.Output
	policy ErrorPolicy
}

// module loads an assembly module, failing the program on compile errors
// (which are host bugs, not injected faults).
func (h *host) module(name, src string) (*cuda.Module, error) {
	return h.ctx.LoadModule(name, src)
}

// alloc allocates device memory; allocation failure is a host-level error.
func (h *host) alloc(n int) (cuda.DevPtr, error) {
	return h.ctx.Malloc(n)
}

// launch runs a kernel; device faults are deliberately not propagated —
// they surface through the sticky error exactly as unchecked CUDA launches
// do.
func (h *host) launch(f *cuda.Function, cfg cuda.LaunchConfig, params ...uint32) {
	// The sticky-error return from a poisoned context is ignored here by
	// design: both policies only observe errors at their checkpoints.
	_ = h.ctx.Launch(f, cfg, params...)
}

// readBack copies device memory to host; on error (poisoned context) it
// returns a zero-filled buffer, modelling a host buffer the failed memcpy
// never filled.
func (h *host) readBack(p cuda.DevPtr, n int) []byte {
	b, err := h.ctx.MemcpyDtoH(p, n)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// upload copies host bytes to the device.
func (h *host) upload(p cuda.DevPtr, b []byte) {
	_ = h.ctx.MemcpyHtoD(p, b)
}

// f32bytes converts float32s to device bytes.
func f32bytes(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// f64bytes converts float64s to device bytes (register-pair layout).
func f64bytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// f32From reads float32s back from device bytes.
func f32From(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// f64From reads float64s back from device bytes.
func f64From(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// checksum32 is the deterministic output digest programs print.
func checksum32(vals []float32) float64 {
	var s float64
	for _, v := range vals {
		s += float64(v)
	}
	return s
}

func checksum64(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// inputKey names one generated input vector: element width, generator seed,
// length and range.
type inputKey struct {
	wide   bool
	seed   int64
	n      int
	lo, hi float64
}

// inputImages memoizes the device byte image of every generated input vector.
// A program's inputs are a pure function of the key, and every experiment of a
// campaign uploads the same ones, so they are generated — a 607-word generator
// state seeded, n draws, n encodes — once per process. The images are
// immutable: MemcpyHtoD copies out of them.
var inputImages sync.Map // inputKey -> []byte

func inputImage(k inputKey, gen func() []byte) []byte {
	if b, ok := inputImages.Load(k); ok {
		return b.([]byte)
	}
	b, _ := inputImages.LoadOrStore(k, gen())
	return b.([]byte)
}

// randFloats returns the device bytes of a deterministic float32 input vector
// in [lo, hi). Callers must not modify them.
func randFloats(seed int64, n int, lo, hi float32) []byte {
	return inputImage(inputKey{false, seed, n, float64(lo), float64(hi)}, func() []byte {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float32, n)
		for i := range out {
			out[i] = lo + (hi-lo)*rng.Float32()
		}
		return f32bytes(out)
	})
}

// randFloats64 is randFloats for a float64 vector (register-pair layout).
func randFloats64(seed int64, n int, lo, hi float64) []byte {
	return inputImage(inputKey{true, seed, n, lo, hi}, func() []byte {
		rng := rand.New(rand.NewSource(seed))
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + (hi-lo)*rng.Float64()
		}
		return f64bytes(out)
	})
}

// fmtF prints a float the way the programs' reference outputs do.
func fmtF(v float64) string { return fmt.Sprintf("%.6e", v) }

// registry holds the 15 programs, built lazily and deterministically.
func registry() []*Program {
	all := []*Program{
		Ostencil(),
		Olbm(),
		Omriq(),
		MD(),
		Palm(),
		EP(),
		Clvrleaf(),
		CG(),
		Seismic(),
		SP(),
		CSP(),
		MiniGhost(),
		Ilbdc(),
		Swim(),
		BT(),
	}
	out := all[:0]
	for _, p := range all {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// All returns the 15 SpecACCEL analogs in Table IV order.
func All() []campaign.Workload {
	progs := registry()
	out := make([]campaign.Workload, len(progs))
	for i, p := range progs {
		out[i] = p
	}
	return out
}

// ByName finds one program.
func ByName(name string) (campaign.Workload, error) {
	for _, p := range registry() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("specaccel: unknown program %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// Names lists the program names in Table IV order.
func Names() []string {
	progs := registry()
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name()
	}
	return names
}

// Infos returns every program's Table IV row.
func Infos() []Info {
	progs := registry()
	infos := make([]Info, len(progs))
	for i, p := range progs {
		infos[i] = p.Info()
	}
	sort.SliceStable(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	return infos
}

// f32bitsConst packs a float32 kernel parameter into its 4-byte word.
func f32bitsConst(f float32) uint32 { return math.Float32bits(f) }

// f64Param splits a float64 kernel parameter into its two 4-byte words
// (low, high), matching the register-pair layout FP64 constants use.
func f64Param(v float64) (lo, hi uint32) {
	b := math.Float64bits(v)
	return uint32(b), uint32(b >> 32)
}
