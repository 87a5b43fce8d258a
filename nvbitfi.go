// Package nvbitfi is a pure-Go reproduction of NVBitFI ("NVBitFI: Dynamic
// Fault Injection for GPUs", Tsai, Hari, Sullivan, Villa, Keckler — NVIDIA,
// DSN 2021): a dynamic, selective, binary-level fault-injection tool for
// GPU programs, together with every substrate it needs — a SASS-like ISA
// with per-architecture-family binary encodings, an architectural SIMT GPU
// simulator, a mini CUDA driver API, an NVBit-style dynamic binary
// instrumentation framework, the SpecACCEL benchmark analogs the paper
// evaluates on, comparator tools (SASSIFI-style and GPU-Qin-style), and a
// campaign harness with the paper's outcome taxonomy and statistics.
//
// This package is the public facade: it re-exports the library surface and
// provides the top-level entry points a user needs to run the paper's
// Figure 1 flow:
//
//	w, _ := nvbitfi.SpecACCELProgram("303.ostencil")
//	r := nvbitfi.Runner{}
//	golden, _ := r.Golden(w)                                 // golden output
//	profile, _, _ := r.Profile(w, nvbitfi.Exact)             // step 1: profile
//	params, _ := nvbitfi.SelectTransientFault(profile,       // step 2: pick a fault
//	    nvbitfi.GroupGPPR, nvbitfi.FlipSingleBit, rng)
//	res, _ := r.RunTransient(ctx, w, golden, *params)        // steps 3-4: inject, compare
//	fmt.Println(res.Class)                                   // SDC / DUE / Masked
package nvbitfi

import (
	"context"
	"math/rand"

	"repro/internal/av"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/faultmodel"
	"repro/internal/gpu"
	"repro/internal/nvbit"
	"repro/internal/sass"
	"repro/internal/specaccel"
	"repro/internal/stats"
)

// Re-exported core types. The aliases keep one canonical implementation in
// the internal packages while giving users a single import.
type (
	// Profile is a program's dynamic instruction profile (one record per
	// dynamic kernel).
	Profile = core.Profile
	// KernelRecord is one dynamic kernel's per-opcode execution counts:
	// OpCounts is an ascending []OpCount, one entry per opcode that issued.
	KernelRecord = core.KernelRecord
	// OpCount is one opcode's entry in a KernelRecord.
	OpCount = core.OpCount
	// ProfileMode selects exact or approximate profiling.
	ProfileMode = core.ProfileMode
	// Profiler is the profiler.so analog (an NVBit tool).
	Profiler = core.Profiler
	// TransientParams is the Table II transient-fault parameter set.
	TransientParams = core.TransientParams
	// ThreadSelector pins a transient fault to one thread (extension).
	ThreadSelector = core.ThreadSelector
	// PermanentParams is the Table III permanent-fault parameter set.
	PermanentParams = core.PermanentParams
	// TransientInjector is the injector.so analog.
	TransientInjector = core.TransientInjector
	// PermanentInjector is the pf_injector.so analog.
	PermanentInjector = core.PermanentInjector
	// ActivationGate makes a permanent fault intermittent.
	ActivationGate = core.ActivationGate
	// RandomGate activates a fault with fixed probability per instance.
	RandomGate = core.RandomGate
	// BurstGate activates a fault in periodic bursts.
	BurstGate = core.BurstGate
	// FaultDictionary maps opcodes to specialized corruption functions.
	FaultDictionary = core.FaultDictionary
	// BitFlipModel is the Table II bit-error pattern.
	BitFlipModel = core.BitFlipModel
	// InjectionRecord reports what an injection actually corrupted.
	InjectionRecord = core.InjectionRecord

	// FaultModel is one pluggable fault model: selection-space scoping, a
	// soundness capability bitmask, and an injector factory.
	FaultModel = faultmodel.Model
	// FaultModelEnv is the campaign context models build injectors against.
	FaultModelEnv = faultmodel.Env
	// FaultModelCaps is the soundness capability bitmask a model declares.
	FaultModelCaps = faultmodel.Caps

	// Group is the "arch state id": the instruction subset to inject.
	Group = sass.Group
	// Family is a GPU architecture family (Kepler..Ampere).
	Family = sass.Family
	// Op is an opcode of the SASS-like ISA.
	Op = sass.Op

	// Workload is a target program: runnable and self-checking.
	Workload = campaign.Workload
	// Output is a workload's observable result.
	Output = campaign.Output
	// Outcome is the error-propagation outcome class (Table V).
	Outcome = campaign.Outcome
	// Classification is a classified run (outcome + symptom + flags).
	Classification = campaign.Classification
	// Runner executes golden runs, profiling runs, and experiments.
	Runner = campaign.Runner
	// GoldenResult is a reference fault-free run.
	GoldenResult = campaign.GoldenResult
	// RunResult is one experiment's result.
	RunResult = campaign.RunResult
	// CampaignResult aggregates a whole campaign.
	CampaignResult = campaign.CampaignResult
	// TransientCampaignConfig parameterizes a transient campaign.
	TransientCampaignConfig = campaign.TransientCampaignConfig
	// Tally counts outcomes.
	Tally = campaign.Tally
	// Trace is a recorded golden trajectory with device snapshots — the
	// checkpoint-and-fork engine's record of one fault-free execution.
	Trace = cuda.Trace
	// Checkpoint is one mid-trajectory device snapshot inside a Trace.
	Checkpoint = cuda.Checkpoint
	// ReplayPlan tells a replay where to restore and when early exit applies.
	ReplayPlan = cuda.ReplayPlan

	// Context is the mini CUDA-driver context.
	Context = cuda.Context
	// Device is the simulated GPU.
	Device = gpu.Device
	// AVConfig parameterizes the real-time AV pipeline workload.
	AVConfig = av.Config
	// AVPipeline is the AV perception pipeline workload.
	AVPipeline = av.Pipeline
)

// Profiling modes.
const (
	Exact       = core.Exact
	Approximate = core.Approximate
)

// Instruction groups (Table II arch state ids 1..8).
const (
	GroupFP64   = sass.GroupFP64
	GroupFP32   = sass.GroupFP32
	GroupLD     = sass.GroupLD
	GroupPR     = sass.GroupPR
	GroupNODEST = sass.GroupNODEST
	GroupOTHERS = sass.GroupOTHERS
	GroupGPPR   = sass.GroupGPPR
	GroupGP     = sass.GroupGP
)

// Bit-flip models (Table II).
const (
	FlipSingleBit = core.FlipSingleBit
	FlipTwoBits   = core.FlipTwoBits
	RandomValue   = core.RandomValue
	ZeroValue     = core.ZeroValue
)

// Fault-model soundness capabilities.
const (
	CapCheckpoint    = faultmodel.CapCheckpoint
	CapEarlyExit     = faultmodel.CapEarlyExit
	CapCertainStrata = faultmodel.CapCertainStrata
)

// Outcome classes (Table V).
const (
	Masked = campaign.Masked
	SDC    = campaign.SDC
	DUE    = campaign.DUE
)

// Architecture families.
const (
	Kepler  = sass.FamilyKepler
	Maxwell = sass.FamilyMaxwell
	Pascal  = sass.FamilyPascal
	Volta   = sass.FamilyVolta
	Ampere  = sass.FamilyAmpere
)

// NewDevice creates a simulated GPU of the given family with numSMs
// streaming multiprocessors.
func NewDevice(family Family, numSMs int) (*Device, error) {
	return gpu.NewDevice(family, numSMs)
}

// NewContext creates a CUDA-like context on a device.
func NewContext(dev *Device) (*Context, error) { return cuda.NewContext(dev) }

// Attach connects an NVBit tool (profiler or injector) to a context — the
// LD_PRELOAD analog. The returned detach function removes it.
func Attach(ctx *Context, tool nvbit.Tool) (detach func(), err error) {
	att, err := nvbit.Attach(ctx, tool)
	if err != nil {
		return nil, err
	}
	return att.Detach, nil
}

// NewProfiler creates a profiler tool.
func NewProfiler(program string, mode ProfileMode) (*Profiler, error) {
	return core.NewProfiler(program, mode)
}

// NewTransientInjector creates a transient-fault injector for one
// experiment.
func NewTransientInjector(p TransientParams) (*TransientInjector, error) {
	return core.NewTransientInjector(p)
}

// NewPermanentInjector creates a permanent-fault injector.
func NewPermanentInjector(p PermanentParams, family Family, numSMs int) (*PermanentInjector, error) {
	return core.NewPermanentInjector(p, family, numSMs)
}

// SelectTransientFault samples one fault uniformly from a profile's dynamic
// instructions of the given group (paper Section III-A).
func SelectTransientFault(p *Profile, g Group, bf BitFlipModel, rng *rand.Rand) (*TransientParams, error) {
	return core.SelectTransientFault(p, g, bf, rng)
}

// SelectPermanentFaults enumerates one permanent fault per executed opcode.
func SelectPermanentFaults(p *Profile, family Family, numSMs int, bf BitFlipModel, rng *rand.Rand) ([]*PermanentParams, error) {
	return core.SelectPermanentFaults(p, family, numSMs, bf, rng)
}

// FaultModels lists the registered fault-model names.
func FaultModels() []string { return faultmodel.Names() }

// LookupFaultModel resolves a fault-model name; the empty string resolves to
// the default transient destination-flip model.
func LookupFaultModel(name string) (FaultModel, error) { return faultmodel.Lookup(name) }

// NewModelEnv derives the shared fault-model environment for a campaign:
// the runner's device shape, the golden kernel view, and the profile's
// opcode activity.
func NewModelEnv(r Runner, golden *GoldenResult, profile *Profile) FaultModelEnv {
	return campaign.ModelEnv(r, golden, profile)
}

// RunTransientCampaign runs an N-injection transient campaign (Figure 2
// data). Cancelling ctx aborts in-flight experiments promptly and returns
// the partial result alongside the context error.
func RunTransientCampaign(ctx context.Context, r Runner, w Workload, golden *GoldenResult,
	profile *Profile, cfg TransientCampaignConfig) (*CampaignResult, error) {
	return campaign.RunTransientCampaign(ctx, r, w, golden, profile, cfg)
}

// RunPermanentCampaign runs one permanent fault per executed opcode with
// dynamic-instruction weighting (Figure 3 data).
func RunPermanentCampaign(ctx context.Context, r Runner, w Workload, golden *GoldenResult,
	profile *Profile, bf BitFlipModel, seed int64, parallel int) (*CampaignResult, error) {
	return campaign.RunPermanentCampaign(ctx, r, w, golden, profile, bf, seed, parallel)
}

// SpecACCEL returns the 15 SpecACCEL benchmark analogs (Table IV).
func SpecACCEL() []Workload { return specaccel.All() }

// SpecACCELProgram finds one SpecACCEL analog by name, e.g. "303.ostencil".
func SpecACCELProgram(name string) (Workload, error) { return specaccel.ByName(name) }

// SpecACCELNames lists the benchmark names in Table IV order.
func SpecACCELNames() []string { return specaccel.Names() }

// SpecACCELInfo is one benchmark's Table IV row (paper and scaled kernel
// counts).
type SpecACCELInfo = specaccel.Info

// SpecACCELInfos returns every benchmark's Table IV row.
func SpecACCELInfos() []SpecACCELInfo {
	progs := specaccel.All()
	infos := make([]SpecACCELInfo, len(progs))
	for i, p := range progs {
		infos[i] = p.(*specaccel.Program).Info()
	}
	return infos
}

// NewAVPipeline builds the real-time AV perception workload (Section IV's
// motivating application).
func NewAVPipeline(cfg AVConfig) *AVPipeline { return av.New(cfg) }

// OpcodeCount returns the size of a family's opcode set; for Volta it is
// 171, as the paper states.
func OpcodeCount(f Family) int { return sass.OpcodeCount(f) }

// MarginOfError returns the worst-case error margin for an outcome
// proportion estimated from n injections (paper: 100 injections → 90%
// confidence ±8%; 1000 → 95% ±3%).
func MarginOfError(n int, confidence float64) (float64, error) {
	return stats.MarginOfError(n, confidence)
}
