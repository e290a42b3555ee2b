package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestJitteredScheduleIsSeededAndOnePerSlot(t *testing.T) {
	span := 10 * time.Second
	slot := span / 200
	a, b := jitteredSchedule(200, span, 7), jitteredSchedule(200, span, 7)
	c := jitteredSchedule(200, span, 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules at %d", i)
		}
		if lo := time.Duration(i) * slot; a[i] < lo || a[i] >= lo+slot {
			t.Fatalf("offset %d = %v outside its slot [%v, %v)", i, a[i], lo, lo+slot)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Errorf("different seeds gave the same schedule")
	}
}

// fakeServe mimics the job API of `repute serve`: a job is running
// until runFor after its submission, then done, and its SAM is the
// uploaded body. Submissions listed in refuse answer 429; the first
// submission stalls for stall.
type fakeServe struct {
	runFor time.Duration
	stall  time.Duration
	refuse map[int]bool

	mu   sync.Mutex
	n    int
	jobs map[string]fakeJob
}

type fakeJob struct {
	at   time.Time
	body []byte
}

func (f *fakeServe) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		k := f.n
		f.n++
		f.mu.Unlock()
		if k == 0 {
			time.Sleep(f.stall)
		}
		if f.refuse[k] {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		id := fmt.Sprintf("j%d", k)
		f.mu.Lock()
		f.jobs[id] = fakeJob{time.Now(), body}
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		j := f.jobs[r.PathValue("id")]
		f.mu.Unlock()
		state := "running"
		if time.Since(j.at) >= f.runFor {
			state = "done"
		}
		json.NewEncoder(w).Encode(map[string]string{"state": state})
	})
	mux.HandleFunc("GET /jobs/{id}/sam", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		j := f.jobs[r.PathValue("id")]
		f.mu.Unlock()
		w.Write(j.body)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"counters":{}}`))
	})
	return mux
}

// fakePlan schedules one job per due offset; each job's expected SAM is
// its upload, which is what fakeServe returns.
func fakePlan(due ...time.Duration) *servePlan {
	p := &servePlan{due: due}
	for i := range due {
		body := []byte(fmt.Sprintf("job %d\n", i))
		p.jobs = append(p.jobs, serveJob{body: body, ctype: "text/plain", expect: body})
	}
	return p
}

func TestDriveCountsRefusalsAsMisses(t *testing.T) {
	f := &fakeServe{runFor: 20 * time.Millisecond, refuse: map[int]bool{1: true}, jobs: map[string]fakeJob{}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	res := newResult()
	sess := drive(srv.URL, fakePlan(0, 10*time.Millisecond, 20*time.Millisecond), 5*time.Second, res)
	if got := len(sess.stats.Latencies); got != 2 {
		t.Fatalf("%d latency samples, want 2 (one job refused)", got)
	}
	if sess.refused != 1 || sess.stats.Misses != 1 {
		t.Errorf("refused %d, misses %d; want 1 and 1", sess.refused, sess.stats.Misses)
	}
	if res.failed != 1 || !res.correct {
		t.Errorf("failed %d, correct %v; want a refusal to count as a miss, not a wrong output", res.failed, res.correct)
	}
	if res.attempted != 3 {
		t.Errorf("attempted %d, want 3", res.attempted)
	}
	for _, l := range sess.stats.Latencies {
		if l < 0.02 {
			t.Errorf("latency %v s is shorter than the job's run time", l)
		}
	}
}

func TestDriveTimesFromDueAndFlagsLag(t *testing.T) {
	stall := 400 * time.Millisecond
	f := &fakeServe{runFor: time.Millisecond, stall: stall, jobs: map[string]fakeJob{}}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	res := newResult()
	// The second job is due while the first submission stalls: the
	// sender starts it late, and its latency must include that wait.
	sess := drive(srv.URL, fakePlan(0, 10*time.Millisecond), 5*time.Second, res)
	if len(sess.stats.Latencies) != 2 {
		t.Fatalf("%d latency samples, want 2", len(sess.stats.Latencies))
	}
	if l := sess.stats.Latencies[1]; l < (stall - 10*time.Millisecond).Seconds() {
		t.Errorf("second job latency %v s does not include the %v it waited behind the stall", l, stall)
	}
	if sess.stats.valid() || res.correct {
		t.Errorf("generator lag %v s beyond the %v limit was not flagged", sess.stats.maxLag(), lagLimit)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness's metric table and
// the declared benchmark in step: same names, units and directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		_, isMap := mapWorkloads[w.Name]
		_, isServe := serveWorkloads[w.Name]
		if !isMap && !isServe {
			t.Errorf("BENCHMARK.json workload %q is not a harness workload", w.Name)
		}
	}
	if got := len(mapWorkloads) + len(serveWorkloads); got != len(bench.Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(bench.Workloads), got)
	}
}
