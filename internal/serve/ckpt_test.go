package serve

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"fpb/internal/ckpt"
	"fpb/internal/sim"
	"fpb/internal/system"
)

func ckptKey() string { return strings.Repeat("ab", 32) }

func httpDo(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

// TestCheckpointEndpoints pins the raw-image transfer API: round trip, key
// validation, corrupt-upload rejection, and the no-store 404.
func TestCheckpointEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       1,
		CheckpointDir: t.TempDir(),
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			return fakeResult(cfg, wl), nil
		},
	})

	url := ts.URL + "/v1/checkpoints/" + ckptKey()
	if code, _ := httpDo(t, http.MethodGet, url, nil); code != http.StatusNotFound {
		t.Fatalf("GET missing key: code %d, want 404", code)
	}

	w := ckpt.NewWriter()
	w.Section("test")
	w.U64(42)
	img := w.Finish()
	if code, body := httpDo(t, http.MethodPut, url, img); code != http.StatusNoContent {
		t.Fatalf("PUT valid image: code %d body %s", code, body)
	}
	code, got := httpDo(t, http.MethodGet, url, nil)
	if code != http.StatusOK || !bytes.Equal(got, img) {
		t.Fatalf("GET after PUT: code %d, %d bytes (want %d)", code, len(got), len(img))
	}

	// Corrupt upload: flip a body byte so the integrity trailer fails.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x80
	if code, _ := httpDo(t, http.MethodPut, url, bad); code != http.StatusBadRequest {
		t.Fatalf("PUT corrupt image: code %d, want 400", code)
	}

	// Invalid keys never reach the store.
	for _, key := range []string{"short", strings.Repeat("Z", 64)} {
		if code, _ := httpDo(t, http.MethodPut, ts.URL+"/v1/checkpoints/"+key, img); code != http.StatusBadRequest {
			t.Errorf("PUT key %q: code %d, want 400", key, code)
		}
	}

	// A server without a checkpoint store answers 404 on both verbs.
	_, ts2 := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			return fakeResult(cfg, wl), nil
		},
	})
	url2 := ts2.URL + "/v1/checkpoints/" + ckptKey()
	if code, _ := httpDo(t, http.MethodGet, url2, nil); code != http.StatusNotFound {
		t.Errorf("GET without store: code %d, want 404", code)
	}
	if code, _ := httpDo(t, http.MethodPut, url2, img); code != http.StatusNotFound {
		t.Errorf("PUT without store: code %d, want 404", code)
	}
}

// TestServeWarmStart drives two real jobs that share a warmup prefix through
// the default (checkpointed) backend: the second must warm-start, and both
// results must be byte-identical to cold in-process runs.
func TestServeWarmStart(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       1,
		CheckpointDir: t.TempDir(),
	})

	base := JobSpec{
		Workload:     "mcf_m",
		InstrPerCore: 3000,
		WarmupCycles: 40_000,
		WarmupScheme: "dimm+chip",
	}
	for i, scheme := range []string{"dimm+chip", "fpb"} {
		spec := base
		spec.Scheme = scheme
		code, st := postJob(t, ts.URL, spec, "")
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("job %d: code %d state %s err %s", i, code, st.State, st.Error)
		}
		cfg, wl, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := system.RunWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		want.Workload = wl
		if !reflect.DeepEqual(*st.Result, want) {
			t.Errorf("scheme %s: served result differs from cold run", scheme)
		}
	}
	m := getMetrics(t, ts.URL)
	if m["serve_jobs_warm_starts"] != 1 {
		t.Errorf("warm_starts = %v, want 1 (first job produces, second restores)", m["serve_jobs_warm_starts"])
	}
	if m["serve_ckpt_entries"] != 1 {
		t.Errorf("ckpt.entries = %v, want 1 (one shared prefix)", m["serve_ckpt_entries"])
	}
}
