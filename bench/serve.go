package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// serveParams sizes one serve workload.
type serveParams struct {
	workload string
	preload  int     // records ingested during set-up, in 1,024-row bodies
	records  int     // records of the timed phase
	batch    int     // rows per timed POST
	rate     float64 // offered records per second; 0 = closed loop
	resolve  bool    // closed-loop /resolve on the second connection, no consumer while timing
}

const preloadBatch = 1024

// firehoseWindow is how many consecutive POSTs make one throughput window
// of the firehose (about a fifth of a second on the reference host).
const firehoseWindow = 8

func firehoseParams(env *runEnv) serveParams {
	return serveParams{workload: "serve-firehose", records: env.scaled(100_000, 1024), batch: 1024}
}

func pacedParams(env *runEnv) serveParams {
	// 6,000 rec/s for 0.8·seconds: about a third of what 16-row batches
	// saturate at on the reference host.
	return serveParams{workload: "serve-paced", records: env.scaled(48_000, 320), batch: 16, rate: 6000}
}

func resolveParams(env *runEnv) serveParams {
	return serveParams{workload: "serve-resolve", preload: env.scaled(30_000, 300),
		records: env.scaled(16_000, 160), batch: 16, rate: 2000, resolve: true}
}

// Load-generator validity limits: a run in which the generator itself was
// the bottleneck measures the generator.
const (
	maxLoadgenCPUShare = 0.35
	maxLateShare       = 0.01
)

// serveState is a set-up serve workload: corpus generated, bodies encoded,
// server up, collection and consumer group created, preload ingested and —
// unless the workload reads pairs only afterwards — the SSE reader attached.
type serveState struct {
	p       serveParams
	rows    []Row
	bodies  [][]byte
	dataDir string
	ch      *child
	ctl     *api         // connection 1: ingest, and control while idle
	aux     *http.Client // connection 2: SSE reader, or resolve loop
	reader  *pairReader
	sent    int // requests sent during set-up
}

func (s *serveState) discard() {
	if s.reader != nil {
		s.reader.stop()
	}
	s.ch.kill()
	os.RemoveAll(s.dataDir)
}

func serveSetup(ctx context.Context, env *runEnv, p serveParams) (s *serveState, err error) {
	s = &serveState{p: p, aux: newConn()}
	if s.rows, err = genCorpus("salted-cora", p.preload+p.records, env.seed); err != nil {
		return nil, err
	}
	pre, err := encodeBodies(s.rows[:p.preload], preloadBatch)
	if err != nil {
		return nil, err
	}
	if s.bodies, err = encodeBodies(s.rows[p.preload:], p.batch); err != nil {
		return nil, err
	}
	if s.dataDir, err = os.MkdirTemp(env.out, "data-"); err != nil {
		return nil, err
	}
	if s.ch, err = startChild(env.bin, s.dataDir); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.discard()
		}
	}()
	s.ctl = &api{base: "http://" + s.ch.addr, hc: newConn()}
	if err := waitServing(ctx, s.ctl, s.ch, "/healthz", 15*time.Second, nil); err != nil {
		return nil, err
	}
	if err := s.ctl.postJSON(ctx, s.ctl.base+"/v1/collections", serveSpec, nil); err != nil {
		return nil, err
	}
	group := map[string]string{"group": consumerGroup, "from": "start"}
	if err := s.ctl.postJSON(ctx, s.ctl.path("/consumers"), group, nil); err != nil {
		return nil, err
	}
	s.sent = 2
	for _, body := range pre {
		if err := s.ctl.send(ctx, s.ctl.path("/records"), body); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		s.sent++
	}
	if !p.resolve {
		if err := s.attachReader(ctx, true); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// attachReader connects the SSE reader on connection 2; with timed set, it
// will sample pair-delivery latency against the due times the sender
// publishes.
func (s *serveState) attachReader(ctx context.Context, timed bool) error {
	r := &pairReader{batch: s.p.batch, t0: time.Now()}
	if timed {
		r.due = make([]atomic.Int64, len(s.bodies))
	}
	var err error
	if s.reader, err = startPairReader(ctx, s.aux, s.ctl.base, r); err != nil {
		return err
	}
	return s.reader.waitReady(10 * time.Second)
}

// waitServing polls path on the child until it answers 200 and accept (when
// non-nil) takes the body, the child dies, or the timeout passes.
func waitServing(ctx context.Context, a *api, ch *child, path string, timeout time.Duration, accept func([]byte) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		status, body, err := a.do(ctx, http.MethodGet, a.base+path, "", nil)
		if err == nil && status == http.StatusOK && (accept == nil || accept(body)) {
			return nil
		}
		if ch.exited() {
			return fmt.Errorf("server exited while starting: %v\n%s", ch.waitErr, ch.stderr.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not serving %s within %v (last: status %d, err %v)", path, timeout, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runServe runs one serve workload end to end: repeated set-up, the timed
// traffic, then — for every serve workload alike — pair-stream drain,
// checkpoint, SIGTERM, restart, and verification against the batch oracle.
func runServe(ctx context.Context, env *runEnv, p serveParams) (*runResult, error) {
	res := newResult(p.workload)
	s, setups, err := repeatSetup(env.repeats,
		func() (*serveState, error) { return serveSetup(ctx, env, p) },
		func(s *serveState) { s.discard() })
	if err != nil {
		return nil, err
	}
	defer s.discard()
	res.Metrics["setup_s"] = median(setups)
	res.Attempted += s.sent

	cpu0, wall0 := selfCPU(), time.Now()
	var ol *openLoopStats
	switch {
	case p.rate == 0:
		err = s.firehose(ctx, res)
	default:
		ol, err = s.paced(ctx, res)
	}
	if err != nil {
		return nil, err
	}
	share := (selfCPU() - cpu0) / (time.Since(wall0).Seconds() * float64(runtime.NumCPU()))
	res.diag("loadgen.cpu_share", share, "ratio")
	if share > maxLoadgenCPUShare {
		return nil, fmt.Errorf("invalid run: the load generator used %.0f%% of the CPUs (limit %.0f%%)",
			share*100, maxLoadgenCPUShare*100)
	}
	if ol != nil {
		interval := time.Duration(float64(p.batch) / p.rate * float64(time.Second))
		late := ol.lateShare(interval)
		res.diag("loadgen.max_late_ms", ms(ol.maxGenLate()), "ms")
		res.diag("loadgen.late_share", late, "ratio")
		if late > maxLateShare {
			return nil, fmt.Errorf("invalid run: the load generator sent %.1f%% of batches more than one interval (%v) late (limit %.0f%%)",
				late*100, interval, maxLateShare*100)
		}
	}
	return res, s.finish(ctx, env, res)
}

// firehose POSTs every body back to back on connection 1.
func (s *serveState) firehose(ctx context.Context, res *runResult) error {
	var (
		lat   = make([]time.Duration, 0, len(s.bodies))
		done  = make([]time.Duration, 0, len(s.bodies))
		rows  = make([]int, 0, len(s.bodies))
		url   = s.ctl.path("/records")
		start = time.Now()
	)
	for i, body := range s.bodies {
		t := time.Now()
		s.reader.due[i].Store(int64(t.Sub(s.reader.t0)))
		res.Attempted++
		if err := s.ctl.send(ctx, url, body); err != nil {
			res.Failed++
			noteFailure(res, "ingest", err)
		}
		end := time.Now()
		lat = append(lat, end.Sub(t))
		done = append(done, end.Sub(start))
		rows = append(rows, min(s.p.batch, s.p.records-i*s.p.batch))
	}
	res.Metrics["records_per_s"] = median(windowRates(done, rows, firehoseWindow))
	res.diag("server.records_per_s_whole_run", float64(s.p.records)/done[len(done)-1].Seconds(), "rec/s")
	v := latencyStats(res, "op_ms", lat)
	res.diag("server.ingest_ack_ms_p99", percentile(v, 99), "ms")
	res.diag("server.ingest_ack_ms_max", v[len(v)-1], "ms")
	return nil
}

// noteFailure keeps the first error of a kind visible in the run's checks
// without flooding them.
func noteFailure(res *runResult, what string, err error) {
	for _, c := range res.Checks {
		if c.Name == what+" request" {
			return
		}
	}
	res.Checks = append(res.Checks, check{Name: what + " request", OK: false, Detail: err.Error()})
}

// paced sends the bodies on a fixed schedule over connection 1; with
// p.resolve, connection 2 meanwhile issues /resolve requests back to back
// until the schedule ends.
func (s *serveState) paced(ctx context.Context, res *runResult) (*openLoopStats, error) {
	p := s.p
	interval := time.Duration(float64(p.batch) / p.rate * float64(time.Second))
	start := time.Now().Add(20 * time.Millisecond)
	if s.reader != nil {
		for i := range s.bodies {
			s.reader.due[i].Store(int64(start.Add(time.Duration(i) * interval).Sub(s.reader.t0)))
		}
	}

	var (
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		resolveLat []time.Duration
		resolveErr error
	)
	if p.resolve {
		aux := &api{base: s.ctl.base, hc: s.aux}
		body, err := json.Marshal(coraResolve)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t := time.Now()
				if err := aux.send(ctx, aux.path("/resolve"), body); err != nil {
					resolveErr = err
					return
				}
				resolveLat = append(resolveLat, time.Since(t))
			}
		}()
	}

	url := s.ctl.path("/records")
	ol := runOpenLoop(wallClock{}, start, interval, len(s.bodies), nil, func(i int) error {
		return s.ctl.send(ctx, url, s.bodies[i])
	})
	close(stop)
	wg.Wait()

	res.Attempted += len(ol.Latency)
	res.Failed += ol.Failed
	res.Metrics["records_per_s"] = float64(p.records) / ol.Done[len(ol.Done)-1].Seconds()
	v := latencyStats(res, "op_ms", ol.Latency)
	res.diag("server.ingest_ack_ms_p99", percentile(v, 99), "ms")
	res.diag("server.ingest_ack_ms_max", v[len(v)-1], "ms")

	if p.resolve {
		res.Attempted += len(resolveLat)
		if resolveErr != nil {
			res.Attempted++
			res.Failed++
			noteFailure(res, "resolve", resolveErr)
		}
		if len(resolveLat) == 0 {
			return nil, fmt.Errorf("no /resolve completed beside the ingest schedule: %v", resolveErr)
		}
		latencyStats(res, "result_ms", resolveLat)
		res.diag("resolve.samples", float64(len(resolveLat)), "count")
	}
	return ol, nil
}

var gcPauseSum = regexp.MustCompile(`(?m)^semblock_gc_pause_seconds_sum ([0-9.eE+-]+)$`)

// finish is what every serve workload does after its traffic: drain the pair
// stream, read the peak memory, resolve once for quality, persist, restart,
// and verify everything served against the batch oracle.
func (s *serveState) finish(ctx context.Context, env *runEnv, res *runResult) error {
	var st collectionStats
	if err := s.ctl.getJSON(ctx, s.ctl.path(""), &st); err != nil {
		return err
	}
	total := s.p.preload + s.p.records
	res.verify("records ingested", st.Records == total, "server holds %d of %d records", st.Records, total)

	rd, cursor, err := s.drainPairs(ctx, res, st)
	if err != nil {
		return err
	}

	// Peak memory of the traffic itself, read before the verification
	// resolve and the compactions add their own.
	if res.Metrics["peak_rss_mb"], err = s.ch.vmHWM(); err != nil {
		return err
	}

	// Quality of what was served: one /resolve over the full collection.
	var ans resolveAnswer
	if err := s.ctl.postJSON(ctx, s.ctl.path("/resolve"), coraResolve, &ans); err != nil {
		return err
	}
	res.Attempted++
	res.verify("resolve covers the collection", ans.Records == total, "resolved %d of %d records", ans.Records, total)

	if _, body, err := s.ctl.do(ctx, http.MethodGet, s.ctl.base+"/metrics", "", nil); err == nil {
		if m := gcPauseSum.FindSubmatch(body); m != nil {
			if v, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
				res.diag("server.gc_pause_ms", v*1000, "ms")
			}
		}
	}

	if err := s.persist(ctx, env, res); err != nil {
		return err
	}
	cpu, err := s.ch.stop(30 * time.Second)
	if err != nil {
		return err
	}
	res.diag("server.cpu_s", cpu, "s")
	if err := s.coldStarts(ctx, env, res, st, cursor); err != nil {
		return err
	}

	// Batch/stream parity over the wire: the pairs read from SSE are the
	// pairs a batch Block over the same records yields, each exactly once.
	o, err := newOracle(serveSpec, s.rows)
	if err != nil {
		return err
	}
	res.verify("pairs equal the batch oracle", rd.sum == o.Pairs, "stream %v, batch %v", rd.sum, o.Pairs)
	res.verify("pair count matches the collection", int(rd.sum.N) == st.Pairs, "stream %d, collection %d", rd.sum.N, st.Pairs)
	matches := make([][2]int32, len(ans.Matches))
	for i, m := range ans.Matches {
		matches[i] = [2]int32{m.Left, m.Right}
	}
	f1, err := o.f1(matches)
	if err != nil {
		return err
	}
	res.Metrics["pc"], res.Metrics["pq"], res.Metrics["f1"] = o.PC, o.PQ, f1
	res.Exact["pairs"] = rd.sum.String()
	res.Exact["records"] = strconv.Itoa(st.Records)
	res.Exact["matches"] = strconv.Itoa(len(matches))
	return nil
}

// drainPairs reads the group's stream to the end of the emission sequence —
// with the reader that followed the traffic, or one connected now — checks
// the frames, and returns the stopped reader and the group's acknowledged
// cursor.
func (s *serveState) drainPairs(ctx context.Context, res *runResult, st collectionStats) (*pairReader, int64, error) {
	if s.reader == nil {
		if err := s.attachReader(ctx, false); err != nil {
			return nil, 0, err
		}
	}
	if err := s.reader.waitCursor(int64(st.Pairs), 60*time.Second); err != nil {
		return nil, 0, err
	}
	// The stream acknowledges a frame after writing it; wait for the
	// group's durable cursor to reach what was read.
	var cs consumerStats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if err := s.ctl.getJSON(ctx, s.ctl.path("/consumers/"+consumerGroup), &cs); err != nil {
			return nil, 0, err
		}
		if cs.Cursor == int64(st.Pairs) || time.Now().After(deadline) {
			break
		}
	}
	s.reader.stop()
	rd := s.reader
	s.reader = nil
	res.verify("stream error", rd.err == nil, "%v", rd.err)
	res.verify("cursors contiguous", rd.gaps == 0 && rd.malformed == 0,
		"%d frames: %d not starting where the previous ended, %d with count/pairs/window mismatch", rd.frames, rd.gaps, rd.malformed)
	res.verify("group cursor acknowledged", cs.Cursor == int64(st.Pairs), "cursor %d, %d pairs emitted", cs.Cursor, st.Pairs)
	if rd.due != nil {
		res.Metrics["result_ms_p50"] = weightedPercentile(rd.latency, 50)
		res.Metrics["result_ms_p90"] = weightedPercentile(rd.latency, 90)
		res.diag("server.pair_delivery_ms_p99", weightedPercentile(rd.latency, 99), "ms")
		res.diag("server.pair_delivery_ms_max", weightedPercentile(rd.latency, 100), "ms")
	}
	if rd.sum.N > 0 {
		res.diag("server.sse_bytes_per_pair", float64(rd.bytes)/float64(rd.sum.N), "bytes/pair")
	}
	return rd, cs.Cursor, nil
}

// persist times the durable write: the checkpoint writes the whole log (the
// server was started with periodic checkpoints off), and each compaction
// after it rewrites the whole log again — the same write, repeated so that
// one slow fsync does not decide the metric. At a tenth of a second each,
// it gets more repeats than the other one-off steps.
func (s *serveState) persist(ctx context.Context, env *runEnv, res *runResult) error {
	var times []float64
	for i := 0; i < 2*env.repeats-1; i++ {
		op := "/checkpoint"
		if i > 0 {
			op = "/compact"
		}
		t := time.Now()
		if err := s.ctl.postJSON(ctx, s.ctl.path(op), struct{}{}, nil); err != nil {
			return err
		}
		times = append(times, time.Since(t).Seconds())
		res.Attempted++
	}
	res.Metrics["persist_s"] = median(times)
	res.diag("server.checkpoint_s", times[0], "s")
	return nil
}

// coldStarts boots a fresh server on the data directory, repeatedly, timing
// each from exec until the collection answers with the records it held at
// shutdown, and checks that pairs and the group cursor came back too.
func (s *serveState) coldStarts(ctx context.Context, env *runEnv, res *runResult, st collectionStats, cursor int64) error {
	var times []float64
	for i := 0; i < env.repeats; i++ {
		ch, err := startChild(env.bin, s.dataDir)
		if err != nil {
			return err
		}
		s.ch = ch
		s.ctl = &api{base: "http://" + ch.addr, hc: newConn()}
		var back collectionStats
		err = waitServing(ctx, s.ctl, ch, "/v1/collections/"+collectionName, 120*time.Second, func(body []byte) bool {
			return json.Unmarshal(body, &back) == nil && back.Records == st.Records
		})
		times = append(times, time.Since(ch.started).Seconds())
		if err != nil {
			return err
		}
		var cs consumerStats
		if err := s.ctl.getJSON(ctx, s.ctl.path("/consumers/"+consumerGroup), &cs); err != nil {
			return err
		}
		if i == 0 {
			res.verify("restart keeps records and pairs", back == st, "before %+v, after %+v", st, back)
			res.verify("restart keeps the group cursor", cs.Cursor == cursor, "before %d, after %d", cursor, cs.Cursor)
		}
		if _, err := ch.stop(30 * time.Second); err != nil {
			return err
		}
	}
	res.Metrics["cold_start_s"] = median(times)
	return nil
}

// serveInput is the generated input of a serve workload as the traced pass
// replays it: the first ledgerRows records in the workload's batch size.
func serveInput(env *runEnv, p serveParams) (*ledgerInput, error) {
	n := p.preload + p.records
	if limit := env.scaled(ledgerRows, p.batch); n > limit {
		n = limit
	}
	rows, err := genCorpus("salted-cora", n, env.seed)
	if err != nil {
		return nil, err
	}
	bodies, err := encodeBodies(rows, p.batch)
	if err != nil {
		return nil, err
	}
	return &ledgerInput{workload: p.workload, spec: serveSpec, resolve: coraResolve,
		rows: rows, bodies: bodies, batch: p.batch, dir: env.out}, nil
}
