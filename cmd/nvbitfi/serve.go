package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/report"
	"repro/internal/serve"
)

// cmdServe runs the campaign coordinator: HTTP API plus an optional
// in-process worker pool, with an on-disk journal so a restart resumes
// unfinished jobs.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	journal := fs.String("journal", "nvbitfi-journal.jsonl", "job journal path ('' disables persistence)")
	workers := fs.Int("workers", 0, "in-process workers to run alongside the coordinator")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "shard lease TTL")
	maxAttempts := fs.Int("max-attempts", 3, "attempts before a shard is quarantined")
	backoff := fs.Duration("retry-backoff", 500*time.Millisecond, "base retry backoff (doubles per attempt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	coord, err := serve.NewCoordinator(serve.Options{
		JournalPath:  *journal,
		LeaseTTL:     *leaseTTL,
		MaxAttempts:  *maxAttempts,
		RetryBackoff: *backoff,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewServer(coord)}
	log.Printf("nvbitfi serve: listening on http://%s (journal %s, %d local workers)",
		ln.Addr(), *journal, *workers)

	var pool *sync.WaitGroup
	if *workers > 0 {
		pool = serve.Pool(ctx, coord, campaign.Runner{}, *workers, log.Printf)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err = <-serveErr:
		stop()
	case <-ctx.Done():
	}
	// The local workers hand their shards back first; closing the
	// coordinator then sends the remote workers' parked lease requests home,
	// so Shutdown is not left waiting out their long-poll.
	if pool != nil {
		pool.Wait()
	}
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	return err
}

// cmdWorker runs a remote worker against a coordinator.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://127.0.0.1:8077", "coordinator base URL")
	name := fs.String("name", "", "worker name (for events and logs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &serve.Worker{
		Backend: serve.NewClient(*coordinator),
		Name:    *name,
		Logf:    log.Printf,
	}
	log.Printf("nvbitfi worker: serving %s", *coordinator)
	err := w.Run(ctx)
	if ctx.Err() != nil {
		return nil // clean shutdown
	}
	return err
}

// spec builds the job spec the flags describe.
func (f *campaignFlags) spec(fs *flag.FlagSet) (serve.CampaignSpec, error) {
	cfg, err := f.config(fs)
	return serve.CampaignSpec{Schema: serve.JobSchema, Workload: f.program, Config: cfg}, err
}

// cmdSubmit submits a campaign to a coordinator and follows its progress.
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://127.0.0.1:8077", "coordinator base URL")
	cf := bindCampaignFlags(fs)
	noWait := fs.Bool("no-wait", false, "submit and print the job id without following progress")
	jsonOut := fs.Bool("json", false, "print the final tally as stable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := cf.spec(fs)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	client := serve.NewClient(*coordinator)
	st, err := client.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "submitted %s: %s over %d shards (golden %.12s)\n",
		st.Workload, st.ID, st.NumShards, st.GoldenDigest)
	if *noWait {
		fmt.Println(st.ID)
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	final, err := client.Watch(ctx, st.ID, 0, func(ev serve.Event) {
		switch ev.Type {
		case "shard":
			line := fmt.Sprintf("shard %d %s (attempt %d, %d/%d done)",
				ev.Shard, ev.State, ev.Attempt, ev.Done, ev.NumShards)
			if ev.Reason != "" {
				line += ": " + ev.Reason
			}
			if ev.Tally != nil {
				line += " — " + ev.Tally.String()
			}
			fmt.Fprintln(os.Stderr, line)
		case "job":
			if ev.State == serve.EventConverged {
				fmt.Fprintf(os.Stderr, "job converged at shard %d (%d/%d shards run)\n",
					ev.Shard, ev.Done, ev.NumShards)
				break
			}
			fmt.Fprintf(os.Stderr, "job %s (%d/%d shards)\n", ev.State, ev.Done, ev.NumShards)
		}
	})
	if err != nil {
		return err
	}
	// The status carries what the in-process result's summary needs.
	res := &campaign.CampaignResult{
		Program: final.Workload, Tally: final.Tally,
		Model: final.Config.Model, ModelParam: final.Config.ModelParam,
		Adaptive: final.Config.Adaptive(final.Converged, final.StopShard, final.AchievedCI, final.Strata),
	}
	if *jsonOut {
		err = report.WriteSummaryJSON(os.Stdout, res)
	} else {
		fmt.Println(report.Summary(res))
	}
	if err == nil && final.State != serve.JobDone {
		err = fmt.Errorf("job settled %s with %d quarantined shards", final.State, final.Quarantined)
	}
	return err
}
