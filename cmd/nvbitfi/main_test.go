package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	nvbitfi "repro"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sass"
	"repro/internal/serve"
)

const cliProgram = "314.omriq"

// stdout runs cmd with os.Stdout captured and returns what it printed.
func stdout(t *testing.T, cmd func([]string) error, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	cmdErr := cmd(args)
	w.Close()
	os.Stdout = saved
	out := <-printed
	if cmdErr != nil {
		t.Fatalf("%v: %v", args, cmdErr)
	}
	return out
}

// cliFixture is what the equivalent library calls start from.
func cliFixture(t *testing.T) (nvbitfi.Runner, nvbitfi.Workload, *nvbitfi.GoldenResult, *nvbitfi.Profile) {
	t.Helper()
	w, err := lookupProgram(cliProgram)
	if err != nil {
		t.Fatal(err)
	}
	r := nvbitfi.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := r.Profile(w, nvbitfi.Exact)
	if err != nil {
		t.Fatal(err)
	}
	return r, w, golden, profile
}

// writeParams writes a parameter file as 'nvbitfi select' does.
func writeParams(t *testing.T, p *nvbitfi.TransientParams) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "params.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := p.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfileMatchesRunner: `profile -o` writes the bytes of the profile the
// equivalent Runner.Profile call returns.
func TestProfileMatchesRunner(t *testing.T) {
	r, w, _, _ := cliFixture(t)
	for _, mode := range []nvbitfi.ProfileMode{nvbitfi.Exact, nvbitfi.Approximate} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "profile.txt")
			stdout(t, cmdProfile, "-program", cliProgram, "-mode", mode.String(), "-o", path)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			profile, _, err := r.Profile(w, mode)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := profile.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("profile -o wrote\n%s\nRunner.Profile writes\n%s", got, want.Bytes())
			}
		})
	}
}

// TestSelectMatchesLibrary: `select` draws, from its -seed alone, the fault
// the profile's population for the model draws: the whole G_GPPR group for
// the default model, the model's own group narrowed to its eligible opcodes
// and resolved to a static site for any other.
func TestSelectMatchesLibrary(t *testing.T) {
	_, _, _, fixture := cliFixture(t)
	path := filepath.Join(t.TempDir(), "profile.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fixture.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := core.ParseProfile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := nvbitfi.LookupFaultModel("stuck")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model    string
		group    sass.Group
		sites    bool
		eligible func(sass.Op) bool
	}{
		{"", sass.GroupGPPR, false, nil},
		{"stuck", stuck.DefaultGroup(), true, stuck.EligibleOp},
	} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("model=%s/seed=%d", tc.model, seed), func(t *testing.T) {
				printed := stdout(t, cmdSelect, "-profile", path, "-model", tc.model, "-seed", fmt.Sprint(seed))
				population, err := profile.Population(tc.group, tc.sites, tc.eligible)
				if err != nil {
					t.Fatal(err)
				}
				want, err := population.Select(nvbitfi.FlipSingleBit, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if printed != want.String() {
					t.Fatalf("select printed\n%s\nthe population draws\n%s", printed, want)
				}
			})
		}
	}
}

// TestInjectMatchesRunner: `inject` takes one path for every -model, and
// prints the injection and outcome the equivalent Runner call returns.
func TestInjectMatchesRunner(t *testing.T) {
	r, w, golden, profile := cliFixture(t)
	transient, err := nvbitfi.SelectTransientFault(profile, nvbitfi.GroupGPPR, nvbitfi.FlipSingleBit, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := nvbitfi.LookupFaultModel("stuck")
	if err != nil {
		t.Fatal(err)
	}
	population, err := profile.Population(stuck.DefaultGroup(), true, stuck.EligibleOp)
	if err != nil {
		t.Fatal(err)
	}
	site, err := population.Select(nvbitfi.FlipSingleBit, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model  string
		params *nvbitfi.TransientParams
	}{{"", transient}, {"stuck", site}} {
		t.Run("model="+tc.model, func(t *testing.T) {
			printed := stdout(t, cmdInject, "-program", cliProgram, "-params", writeParams(t, tc.params), "-model", tc.model)
			var want *nvbitfi.RunResult
			if tc.model == "" {
				want, err = r.RunTransient(context.Background(), w, golden, *tc.params)
			} else {
				want, err = r.RunModel(context.Background(), w, golden, stuck, *tc.params, "",
					nvbitfi.NewModelEnv(r, golden, profile))
			}
			if err != nil {
				t.Fatal(err)
			}
			rec := want.Injection
			for _, line := range []string{
				fmt.Sprintf("injection: activated=%v kernel=%s instr=%d opcode=%v lane=%d target=%s 0x%08x->0x%08x\n",
					rec.Activated, rec.Kernel, rec.InstrIdx, rec.Opcode, rec.Lane, rec.Target, rec.Before, rec.After),
				fmt.Sprintf("outcome: %v\n", want.Class),
			} {
				if !strings.Contains(printed, line) {
					t.Errorf("inject printed\n%s\nwant a line %q", printed, line)
				}
			}
		})
	}
	// The transient model takes no parameter and says so itself.
	err = cmdInject([]string{"-program", cliProgram, "-params", writeParams(t, transient), "-model-param", "bit=3"})
	if err == nil || !strings.Contains(err.Error(), "transient model takes no parameter") {
		t.Fatalf("inject -model-param without a model: %v", err)
	}
}

// TestPFInjectMatchesRunner: `pf-inject` prints the activations and outcome
// of the equivalent RunPermanent call.
func TestPFInjectMatchesRunner(t *testing.T) {
	r, w, golden, profile := cliFixture(t)
	// The fault sits on the program's most executed opcode, on lane 0 of SM 0.
	opset := sass.OpcodeSet(nvbitfi.Volta)
	var op, most = 0, uint64(0)
	for id, o := range opset {
		if n := profile.OpcodeTotals()[o]; n > most {
			op, most = id, n
		}
	}
	p := nvbitfi.PermanentParams{SMID: 0, Lane: 0, BitMask: 0x400, OpcodeID: op}
	printed := stdout(t, cmdPFInject, "-program", cliProgram, "-sm", "0", "-lane", "0", "-mask", "0x400",
		"-opcode", fmt.Sprint(op))
	want, err := r.RunPermanent(context.Background(), w, golden, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Activations == 0 {
		t.Fatalf("the fault on %v never activated; the comparison is vacuous", opset[op])
	}
	for _, line := range []string{
		fmt.Sprintf("%d activations\n", want.Activations),
		fmt.Sprintf("outcome: %v\n", want.Class),
	} {
		if !strings.Contains(printed, line) {
			t.Errorf("pf-inject printed\n%s\nwant %q", printed, line)
		}
	}
}

// TestCampaignMatchesLibrary: `campaign -n 4` prints the summary tally of the
// equivalent RunTransientCampaign call.
func TestCampaignMatchesLibrary(t *testing.T) {
	r, w, golden, profile := cliFixture(t)
	printed := stdout(t, cmdCampaign, "-program", cliProgram, "-n", "4", "-json")
	want, err := nvbitfi.RunTransientCampaign(context.Background(), r, w, golden, profile,
		nvbitfi.TransientCampaignConfig{Injections: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := summary(t, printed)
	tg, _ := json.Marshal(got.Tally)
	tw, _ := json.Marshal(want.Tally)
	if !bytes.Equal(tg, tw) {
		t.Fatalf("campaign tally %s, RunTransientCampaign %s", tg, tw)
	}
	if got.Program != want.Program {
		t.Fatalf("campaign summary %+v, RunTransientCampaign program %s", got, want.Program)
	}
}

// summary returns the JSON summary line a command printed.
func summary(t *testing.T, printed string) report.SummaryJSON {
	t.Helper()
	var got report.SummaryJSON
	for _, line := range strings.Split(printed, "\n") {
		if strings.HasPrefix(line, `{"schema"`) {
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got.Tally == nil {
		t.Fatalf("printed no JSON summary:\n%s", printed)
	}
	return got
}

// TestSubmitMatchesCampaign: `submit` and `campaign` bind their shared config
// flags once, so the same flags build the same config — for -model predflip
// that means its own group G_PR, not G_GPPR — and a coordinator's tally is the
// in-process one.
func TestSubmitMatchesCampaign(t *testing.T) {
	args := []string{"-program", cliProgram, "-n", "12", "-seed", "5", "-shard-size", "4", "-model", "predflip"}
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	cf := bindCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want, err := cf.config(fs)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(serve.NewServer(coord))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	pool := serve.Pool(ctx, coord, nvbitfi.Runner{}, 2, t.Logf)
	defer func() {
		cancel()
		pool.Wait()
	}()

	submitted, _ := json.Marshal(summary(t, stdout(t, cmdSubmit, append([]string{"-coordinator", srv.URL, "-json"}, args...)...)).Tally)
	local, _ := json.Marshal(summary(t, stdout(t, cmdCampaign, append([]string{"-json"}, args...)...)).Tally)
	if !bytes.Equal(submitted, local) {
		t.Fatalf("submit tally %s, campaign tally %s", submitted, local)
	}
	jobs := coord.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("coordinator holds %d jobs, want 1", len(jobs))
	}
	if jobs[0].Config != want {
		t.Fatalf("submit built %+v, campaign builds %+v", jobs[0].Config, want)
	}
}

// TestSubmitPrintsCampaignSummary: `submit`'s text line is the summary
// `campaign` prints for the same flags — fault-model tag and potential DUEs
// included — less the median run time, which a tally alone does not carry.
func TestSubmitPrintsCampaignSummary(t *testing.T) {
	args := []string{"-program", cliProgram, "-n", "8", "-seed", "5", "-shard-size", "4", "-model", "predflip"}
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(serve.NewServer(coord))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	pool := serve.Pool(ctx, coord, nvbitfi.Runner{}, 2, t.Logf)
	defer func() {
		cancel()
		pool.Wait()
	}()

	line := func(printed string) string {
		for _, l := range strings.Split(printed, "\n") {
			if strings.HasPrefix(l, cliProgram+":") {
				return l
			}
		}
		t.Fatalf("printed no summary line:\n%s", printed)
		return ""
	}
	submitted := line(stdout(t, cmdSubmit, append([]string{"-coordinator", srv.URL}, args...)...))
	local := regexp.MustCompile(`, median run [^,\[ ]*`).ReplaceAllString(line(stdout(t, cmdCampaign, args...)), "")
	if submitted != local {
		t.Fatalf("submit printed\n%s\ncampaign printed\n%s", submitted, local)
	}
	if !strings.Contains(submitted, "[model predflip]") || !strings.Contains(submitted, "potential DUEs") {
		t.Fatalf("submit summary lacks the model tag or the potential-DUE count: %s", submitted)
	}
}

// TestCampaignFlagGuardRails: the CLI refuses what the campaign config
// refuses, through the config's own rules, before any run; -permanent refuses
// every transient-only flag set on the command line, and -confidence and
// -max-n are refused without -target-ci rather than dropped.
func TestCampaignFlagGuardRails(t *testing.T) {
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdCampaign, []string{"-ckpt-stride", "64"}, "require -ckpt"},
		{cmdCampaign, []string{"-no-early-exit"}, "require -ckpt"},
		{cmdCampaign, []string{"-n", "-3"}, "negative injection count"},
		{cmdCampaign, []string{"-target-ci", "0.1", "-confidence", "2"}, "confidence"},
		{cmdCampaign, []string{"-permanent", "-ckpt-stride", "64"}, "-ckpt-stride applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-no-early-exit"}, "-no-early-exit applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-ckpt"}, "-ckpt applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-n", "5"}, "-n applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-group", "G_FP32"}, "-group applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-shard-size", "4"}, "-shard-size applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-model-param", "bit=3"}, "-model-param applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-max-n", "50"}, "-max-n applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-confidence", "0.9"}, "-confidence applies to transient campaigns only"},
		{cmdCampaign, []string{"-permanent", "-bitflip", "9"}, "invalid bit-flip model 9"},
		{cmdCampaign, []string{"-max-n", "50"}, "-max-n requires -target-ci"},
		{cmdCampaign, []string{"-confidence", "0.9"}, "-confidence requires -target-ci"},
		// No coordinator listens on port 1: submit must refuse before dialing.
		{cmdSubmit, []string{"-coordinator", "http://127.0.0.1:1", "-ckpt-stride", "64"}, "require -ckpt"},
		{cmdSubmit, []string{"-coordinator", "http://127.0.0.1:1", "-target-ci", "0.1", "-confidence", "-1"}, "confidence"},
		{cmdSubmit, []string{"-coordinator", "http://127.0.0.1:1", "-max-n", "50"}, "-max-n requires -target-ci"},
		{cmdSubmit, []string{"-coordinator", "http://127.0.0.1:1", "-confidence", "0.9"}, "-confidence requires -target-ci"},
	} {
		err := tc.cmd(append([]string{"-program", cliProgram}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}
