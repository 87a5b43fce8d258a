// Command nvbitfi is the campaign CLI, the analog of the NVBitFI package's
// convenience scripts: it profiles a target program, selects faults,
// injects them, classifies outcomes, and runs whole campaigns.
//
// Usage:
//
//	nvbitfi profile   -program 303.ostencil [-mode exact|approx] [-o profile.txt]
//	nvbitfi select    -profile profile.txt [-group G_GPPR] [-bitflip 1] [-seed 1] [-model stuck] [-o params.txt]
//	nvbitfi inject    -program 303.ostencil -params params.txt [-model stuck [-model-param value=0,bit=17]]
//	nvbitfi pf-inject -program 303.ostencil -sm 0 -lane 3 -mask 0x400 -opcode 12
//	nvbitfi campaign  -program 303.ostencil [-n 100] [-mode exact|approx] [-group G_GPPR] [-seed 1] [-target-ci 0.02 [-confidence 0.95] [-max-n N]] [-ckpt [-ckpt-stride N] [-no-early-exit]] [-parallel N] [-verify]
//	nvbitfi profdiff  -a exact.txt -b approx.txt [-group G_GPPR] [-min 0.01]
//	nvbitfi report    -table1 | -table4
//	nvbitfi serve     [-addr 127.0.0.1:8077] [-journal nvbitfi-journal.jsonl] [-workers N]
//	nvbitfi worker    [-coordinator http://host:8077] [-name NAME]
//	nvbitfi submit    -program 303.ostencil [-coordinator URL] [-n 100] [-seed 1] [-target-ci 0.02] [-ckpt] [-json]
//	nvbitfi list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/modcache"
	"repro/internal/nvbit"
	"repro/internal/report"
	"repro/internal/sass"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "select":
		err = cmdSelect(os.Args[2:])
	case "inject":
		err = cmdInject(os.Args[2:])
	case "pf-inject":
		err = cmdPFInject(os.Args[2:])
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "profdiff":
		err = cmdProfDiff(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "list":
		err = cmdList()
	case "models":
		err = cmdModels()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvbitfi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nvbitfi <profile|select|inject|pf-inject|campaign|profdiff|report|serve|worker|submit|list|models> [flags]
run "nvbitfi <subcommand> -h" for subcommand flags`)
}

// cmdModels lists the registered fault models with their default group and
// which campaign accelerations each supports.
func cmdModels() error {
	dflt, err := nvbitfi.LookupFaultModel("")
	if err != nil {
		return err
	}
	for _, name := range nvbitfi.FaultModels() {
		m, err := nvbitfi.LookupFaultModel(name)
		if err != nil {
			return err
		}
		def := ""
		if name == dflt.Name() {
			def = " (default)"
		}
		fmt.Printf("%-10s%s %s\n", name, def, m.Description())
		fmt.Printf("          group=%v checkpoint=%v\n",
			m.DefaultGroup(),
			m.Caps().Has(nvbitfi.CapCheckpoint))
	}
	return nil
}

func lookupProgram(name string) (nvbitfi.Workload, error) {
	if name == "av.pipeline" {
		return nvbitfi.NewAVPipeline(nvbitfi.AVConfig{}), nil
	}
	return nvbitfi.SpecACCELProgram(name)
}

func parseMode(s string) (nvbitfi.ProfileMode, error) {
	switch s {
	case "exact":
		return nvbitfi.Exact, nil
	case "approx", "approximate":
		return nvbitfi.Approximate, nil
	default:
		return 0, fmt.Errorf("unknown profiling mode %q (want exact or approx)", s)
	}
}

// cliFlags holds the flags more than one command takes.
type cliFlags struct {
	program, mode, group, model, modelParam string
	bitflip                                 int
	seed                                    int64
}

// bindFlags binds the named shared flags into fs. It is the one table that
// defines them, so a flag has the same name, default and meaning in every
// command that takes it.
func bindFlags(fs *flag.FlagSet, names ...string) *cliFlags {
	f := &cliFlags{}
	for _, name := range names {
		switch name {
		case "program":
			fs.StringVar(&f.program, name, "", "target program name ('all' runs every program; campaign only)")
		case "mode":
			fs.StringVar(&f.mode, name, "exact", "profiling mode: exact or approx")
		case "group":
			fs.StringVar(&f.group, name, "", "instruction group, arch state id or name (default: the fault model's group, G_GPPR for transient)")
		case "bitflip":
			fs.IntVar(&f.bitflip, name, int(nvbitfi.FlipSingleBit), "bit-flip model 1..4")
		case "seed":
			fs.Int64Var(&f.seed, name, 1, "fault-selection seed")
		case "model":
			fs.StringVar(&f.model, name, "", "fault model (default transient; see 'nvbitfi models')")
		case "model-param":
			fs.StringVar(&f.modelParam, name, "", "fault-model parameter string, e.g. value=0,bit=17")
		default:
			panic("nvbitfi: no shared flag -" + name)
		}
	}
	return f
}

// baseConfig is the campaign config of the shared flags alone. An unset group
// stays zero, so the config defaults it to the fault model's own group.
func (f *cliFlags) baseConfig() (nvbitfi.TransientCampaignConfig, error) {
	cfg := nvbitfi.TransientCampaignConfig{
		BitFlip: nvbitfi.BitFlipModel(f.bitflip), Seed: f.seed,
		Model: f.model, ModelParam: f.modelParam,
	}
	if f.group != "" {
		g, err := sass.ParseGroup(f.group)
		if err != nil {
			return cfg, err
		}
		cfg.Group = g
	}
	return cfg, nil
}

// writeOut writes v to the file at path, or to stdout when path is empty.
func writeOut(path string, v io.WriterTo) error {
	if path == "" {
		_, err := v.WriteTo(os.Stdout)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := v.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load parses the file at path with parse.
func load[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	sf := bindFlags(fs, "program", "mode")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupProgram(sf.program)
	if err != nil {
		return err
	}
	m, err := parseMode(sf.mode)
	if err != nil {
		return err
	}
	profile, dur, err := nvbitfi.Runner{}.Profile(w, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "profiled %s in %v: %d dynamic kernels, %d static\n",
		w.Name(), dur.Round(time.Millisecond), profile.DynamicKernels(), len(profile.StaticKernels()))
	return writeOut(*out, profile)
}

// cmdSelect draws one fault from a profile file, from the population a
// campaign with the same group, bit-flip model and fault model draws from.
func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	sf := bindFlags(fs, "group", "bitflip", "seed", "model")
	profilePath := fs.String("profile", "", "profile file from 'nvbitfi profile'")
	out := fs.String("o", "", "output parameter file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := sf.baseConfig()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	profile, err := load(*profilePath, core.ParseProfile)
	if err != nil {
		return err
	}
	population, err := campaign.Population(profile, cfg)
	if err != nil {
		return err
	}
	params, err := population.Select(cfg.BitFlip, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return err
	}
	return writeOut(*out, params)
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	sf := bindFlags(fs, "program", "model", "model-param")
	paramsPath := fs.String("params", "", "parameter file from 'nvbitfi select'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupProgram(sf.program)
	if err != nil {
		return err
	}
	params, err := load(*paramsPath, core.ParseTransientParams)
	if err != nil {
		return err
	}
	m, err := nvbitfi.LookupFaultModel(sf.model)
	if err != nil {
		return err
	}
	if err := m.ValidateParam(sf.modelParam); err != nil {
		return err
	}
	r := nvbitfi.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		return err
	}
	// Model injectors resolve their site against the static kernel view and
	// (opsub) weight substitutes by opcode activity, so a one-off inject
	// profiles the workload the way a campaign would.
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		return err
	}
	res, err := r.RunModel(context.Background(), w, golden, m, *params, sf.modelParam,
		nvbitfi.NewModelEnv(r, golden, profile))
	if err != nil {
		return err
	}
	rec := res.Injection
	fmt.Printf("injection: activated=%v kernel=%s instr=%d opcode=%v lane=%d target=%s 0x%08x->0x%08x\n",
		rec.Activated, rec.Kernel, rec.InstrIdx, rec.Opcode, rec.Lane, rec.Target, rec.Before, rec.After)
	if res.Activations > 0 {
		fmt.Printf("activations: %d\n", res.Activations)
	}
	fmt.Printf("outcome: %v\n", res.Class)
	return nil
}

func cmdPFInject(args []string) error {
	fs := flag.NewFlagSet("pf-inject", flag.ExitOnError)
	sf := bindFlags(fs, "program")
	sm := fs.Int("sm", 0, "SM id")
	lane := fs.Int("lane", 0, "lane id 0..31")
	mask := fs.String("mask", "0x1", "XOR bit mask")
	opcode := fs.Int("opcode", 0, "opcode id in the Volta opcode set")
	paramsPath := fs.String("params", "", "Table III parameter file (overrides the flags)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupProgram(sf.program)
	if err != nil {
		return err
	}
	var p nvbitfi.PermanentParams
	if *paramsPath != "" {
		pp, err := load(*paramsPath, core.ParsePermanentParams)
		if err != nil {
			return err
		}
		p = *pp
	} else {
		m, err := strconv.ParseUint(*mask, 0, 32)
		if err != nil {
			return fmt.Errorf("bad mask: %v", err)
		}
		p = nvbitfi.PermanentParams{SMID: *sm, Lane: *lane, BitMask: uint32(m), OpcodeID: *opcode}
	}
	r := nvbitfi.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		return err
	}
	res, err := r.RunPermanent(context.Background(), w, golden, p, nil, nil)
	if err != nil {
		return err
	}
	fmt.Printf("permanent fault: opcode %v on SM %d lane %d mask 0x%x, %d activations\n",
		p.Opcode(nvbitfi.Volta), p.SMID, p.Lane, p.BitMask, res.Activations)
	fmt.Printf("outcome: %v\n", res.Class)
	return nil
}

// campaignFlags are the campaign-config flags `campaign` and `submit` share:
// the shared flags of a fault selection, and the campaign's own.
type campaignFlags struct {
	*cliFlags
	n, shardSize, maxN   int
	ckpt, noEarlyExit    bool
	targetCI, confidence float64
	ckptStride           uint64
}

// bindCampaignFlags binds the campaign-config flags into fs, with the extra
// shared flags named.
func bindCampaignFlags(fs *flag.FlagSet, extra ...string) *campaignFlags {
	f := &campaignFlags{cliFlags: bindFlags(fs,
		append([]string{"program", "group", "bitflip", "seed", "model", "model-param"}, extra...)...)}
	fs.IntVar(&f.n, "n", 100, "number of transient injections")
	fs.IntVar(&f.shardSize, "shard-size", 0, "experiments per selection shard (0 = default; part of the campaign's identity)")
	fs.Float64Var(&f.targetCI, "target-ci", 0, "adaptive sampling: stop at the first shard boundary where the stratified SDC-share interval half-width is at most this (0 = fixed-count campaign)")
	fs.Float64Var(&f.confidence, "confidence", campaign.DefaultConfidence, "confidence level for -target-ci")
	fs.IntVar(&f.maxN, "max-n", 0, "with -target-ci, the selection budget cap (0 = -n)")
	fs.BoolVar(&f.ckpt, "ckpt", false, "checkpoint-and-fork: record the golden trajectory once and start each experiment from the snapshot nearest its injection point")
	fs.Uint64Var(&f.ckptStride, "ckpt-stride", 0, "checkpoint stride in warp instructions (0 = derive from the golden run length)")
	fs.BoolVar(&f.noEarlyExit, "no-early-exit", false, "with -ckpt, disable early-exit classification at checkpoint boundaries")
	return f
}

// transientOnly are the campaign flags a permanent campaign has no use for.
var transientOnly = []string{
	"n", "group", "shard-size", "model-param",
	"target-ci", "confidence", "max-n", "ckpt", "ckpt-stride", "no-early-exit",
}

// setFlag returns the first of names set explicitly on fs, or "".
func setFlag(fs *flag.FlagSet, names ...string) (set string) {
	fs.Visit(func(f *flag.Flag) {
		if set == "" && slices.Contains(names, f.Name) {
			set = f.Name
		}
	})
	return set
}

// config builds the campaign config the flags parsed into fs describe. The
// adaptive knobs are left out unless requested, so such configs encode
// byte-identically to prior releases. An adaptive knob set without -target-ci
// is refused, not dropped.
func (f *campaignFlags) config(fs *flag.FlagSet) (nvbitfi.TransientCampaignConfig, error) {
	cfg, err := f.baseConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Injections, cfg.ShardSize = f.n, f.shardSize
	cfg.Checkpoint, cfg.CkptStride, cfg.NoEarlyExit = f.ckpt, f.ckptStride, f.noEarlyExit
	if f.targetCI <= 0 {
		if name := setFlag(fs, "confidence", "max-n"); name != "" {
			return cfg, fmt.Errorf("-%s requires -target-ci", name)
		}
		return cfg, nil
	}
	cfg.TargetCI, cfg.Confidence, cfg.MaxInjections = f.targetCI, f.confidence, f.maxN
	return cfg, nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	cf := bindCampaignFlags(fs, "mode")
	permanent := fs.Bool("permanent", false, "run a permanent campaign instead")
	parallel := fs.Int("parallel", 0, "concurrent injection experiments (0 = one per CPU; 1 makes per-run durations meaningful)")
	verify := fs.Bool("verify", false, "verify modules at load and reject programs with static errors")
	csvPath := fs.String("csv", "", "write the outcome distribution as CSV to this file")
	runlogPath := fs.String("runlog", "", "write one line per injection run to this file")
	jsonOut := fs.Bool("json", false, "print one stable JSON summary line per program to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMode(cf.mode)
	if err != nil {
		return err
	}
	if *permanent {
		if name := setFlag(fs, transientOnly...); name != "" {
			return fmt.Errorf("campaign: -%s applies to transient campaigns only", name)
		}
		if cf.model != "" {
			return fmt.Errorf("campaign: -model selects a fault model for transient-style campaigns; use the 'stuck' model instead of -permanent, or drop -model")
		}
	}
	cfg, err := cf.config(fs)
	if err != nil {
		return err
	}
	cfg.Parallel = *parallel
	if err := cfg.Validate(); err != nil {
		return err
	}
	var programs []nvbitfi.Workload
	if cf.program == "all" {
		programs = nvbitfi.SpecACCEL()
	} else {
		w, err := lookupProgram(cf.program)
		if err != nil {
			return err
		}
		programs = []nvbitfi.Workload{w}
	}
	r := nvbitfi.Runner{VerifyModules: *verify}
	var results []*nvbitfi.CampaignResult
	for _, w := range programs {
		golden, err := r.Golden(w)
		if err != nil {
			return err
		}
		profile, _, err := r.Profile(w, m)
		if err != nil {
			return err
		}
		var res *nvbitfi.CampaignResult
		if *permanent {
			res, err = nvbitfi.RunPermanentCampaign(context.Background(), r, w, golden, profile,
				cfg.BitFlip, cfg.Seed, cfg.Parallel)
		} else {
			res, err = nvbitfi.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
		}
		if err != nil {
			if res != nil {
				// Degraded campaign: print what completed, then fail.
				fmt.Println(report.Summary(res))
			}
			return err
		}
		results = append(results, res)
		fmt.Println(report.Summary(res))
	}
	if *jsonOut {
		if err := report.WriteSummaryJSON(os.Stdout, results...); err != nil {
			return err
		}
	}
	st := modcache.Shared.Stats()
	fmt.Printf("module cache: assemble %d hits / %d builds, decode %d hits / %d builds, codec %d hits / %d builds, plan %d hits / %d builds\n",
		st.AssembleHits, st.AssembleBuilds, st.DecodeHits, st.DecodeBuilds, st.CodecHits, st.CodecBuilds, st.PlanHits, st.PlanBuilds)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if *permanent {
			err = report.WriteWeightedCSV(f, results...)
		} else {
			err = report.WriteOutcomeCSV(f, results...)
		}
		if err != nil {
			return err
		}
	}
	if *runlogPath != "" {
		f, err := os.Create(*runlogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		for _, res := range results {
			if err := report.WriteRunLog(f, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// cmdProfDiff compares two profiles — the exact-versus-approximate
// analysis of the paper's Section IV-B.
func cmdProfDiff(args []string) error {
	fs := flag.NewFlagSet("profdiff", flag.ExitOnError)
	aPath := fs.String("a", "", "first profile file")
	bPath := fs.String("b", "", "second profile file")
	group := fs.String("group", "G_GPPR", "instruction group to compare")
	minRel := fs.Float64("min", 0.01, "report kernels deviating at least this fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := sass.ParseGroup(*group)
	if err != nil {
		return err
	}
	a, err := load(*aPath, core.ParseProfile)
	if err != nil {
		return err
	}
	b, err := load(*bPath, core.ParseProfile)
	if err != nil {
		return err
	}
	d := core.DiffProfiles(a, b, g)
	return d.WriteReport(os.Stdout, *minRel)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	table1 := fs.Bool("table1", false, "print the tool-capability comparison (Table I)")
	table4 := fs.Bool("table4", false, "print the benchmark suite (Table IV)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *table1:
		return reportTable1()
	case *table4:
		return reportTable4()
	default:
		return fmt.Errorf("report: pass -table1 or -table4")
	}
}

func reportTable1() error {
	params := core.TransientParams{
		Group: nvbitfi.GroupGP, BitFlip: nvbitfi.FlipSingleBit,
		KernelName: "conv1d", KernelCount: 2, InstrCount: 500,
		DestRegSelect: 0.3, BitPatternValue: 0.4,
	}
	newCtx := func() (*nvbitfi.Context, error) {
		dev, err := nvbitfi.NewDevice(nvbitfi.Volta, 8)
		if err != nil {
			return nil, err
		}
		ctx, err := nvbitfi.NewContext(dev)
		if err != nil {
			return nil, err
		}
		ctx.SetDefaultBudget(1 << 30)
		return ctx, nil
	}
	pipeline := nvbitfi.NewAVPipeline(nvbitfi.AVConfig{Frames: 4})

	fmt.Printf("%-22s %-16s %-14s %-18s %s\n", "Tool", "Mechanism", "Needs source?", "Injected library?", "Notes")
	// NVBitFI.
	ctx, err := newCtx()
	if err != nil {
		return err
	}
	inj, err := nvbitfi.NewTransientInjector(params)
	if err != nil {
		return err
	}
	att, err := nvbit.Attach(ctx, inj)
	if err != nil {
		return err
	}
	if _, err := pipeline.Run(ctx); err != nil {
		return err
	}
	att.Detach()
	fmt.Printf("%-22s %-16s %-14s %-18v %s\n", "NVBitFI (this work)", "dynamic binary", "No",
		inj.Record().Activated, "selective per dynamic kernel")
	// StaticFI.
	ctx, err = newCtx()
	if err != nil {
		return err
	}
	s, err := baseline.AttachStaticFI(ctx, params)
	if err != nil {
		return err
	}
	if _, err := pipeline.Run(ctx); err != nil {
		return err
	}
	s.Detach()
	fmt.Printf("%-22s %-16s %-14s %-18v %s\n", "StaticFI (SASSIFI)", "compile-time", "Yes",
		s.Record().Activated, strings.Join(s.Failures(), "; "))
	// DebuggerFI.
	ctx, err = newCtx()
	if err != nil {
		return err
	}
	d, err := baseline.AttachDebuggerFI(ctx, params)
	if err != nil {
		return err
	}
	out, err := pipeline.Run(ctx)
	if err != nil {
		return err
	}
	d.Detach()
	fmt.Printf("%-22s %-16s %-14s %-18v %s\n", "DebuggerFI (GPU-Qin)", "debugger", "No",
		d.Record().Activated, fmt.Sprintf("%d single steps; exit %d", d.Steps(), out.ExitCode))
	return nil
}

func reportTable4() error {
	fmt.Printf("%-14s %-46s %8s %9s\n", "Program", "Description", "Static", "Dynamic")
	r := nvbitfi.Runner{}
	for _, w := range nvbitfi.SpecACCEL() {
		profile, _, err := r.Profile(w, nvbitfi.Approximate)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %-46s %8d %9d\n", w.Name(), w.Description(),
			len(profile.StaticKernels()), profile.DynamicKernels())
	}
	return nil
}

func cmdList() error {
	fmt.Println("available programs:")
	for _, info := range nvbitfi.SpecACCELInfos() {
		fmt.Printf("  %-14s %s\n", info.Name, info.Description)
	}
	fmt.Printf("  %-14s %s\n", "av.pipeline", "Real-time AV perception pipeline (binary-only vendor detector)")
	return nil
}
