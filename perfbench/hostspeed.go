package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// The host-speed reference. On a shared host, other tenants slow this
// process's CPUs by up to twice for seconds to minutes at a time, with
// almost no steal time reported (see "Host-speed scaling" in doc.go). An
// untraced serving run therefore stops its callers every refEvery of load
// and runs one reference slice: a fixed load that uses no code of this
// repository and does the kind of work the workload's time goes to,
// JSON over loopback HTTP on serve-warm and float math on serve-cold.
// The run's host factor is its median slice time over refNominal; the
// timed window's latencies and wall times are divided by it and its
// throughput multiplied.
const (
	refEvery = 250 * time.Millisecond
	// refRoundTrips and refMathIters size one caller's share of a slice,
	// and refNominal is about the time either takes on an uncontended
	// 2-vCPU Xeon VM: scaled metrics read as if every slice had taken
	// that long.
	refRoundTrips = 85
	refMathIters  = 75000
	refNominal    = 10 * time.Millisecond
)

// refDoc is the reference payload: about the size and shape of a
// serving request.
type refDoc struct {
	Platform string             `json:"platform"`
	Scenario int                `json:"scenario"`
	Values   []float64          `json:"values"`
	Params   map[string]float64 `json:"params"`
}

// refLoad runs reference slices on every caller at once: math, or round
// trips to its own stdlib echo server.
type refLoad struct {
	callers int
	useMath bool
	srv     *httptest.Server // round trips only, with one client per caller
	clients []*http.Client
	payload []byte
}

func newRefLoad(callers int, useMath bool) *refLoad {
	r := &refLoad{callers: callers, useMath: useMath}
	if useMath {
		return r
	}
	doc := refDoc{Platform: "reference", Scenario: 3, Values: make([]float64, 16),
		Params: map[string]float64{"alpha": 1e-3, "lambda": 1e-10, "downtime": 3600}}
	for i := range doc.Values {
		doc.Values[i] = float64(i+1) * 1.25e-9
	}
	var err error
	if r.payload, err = json.Marshal(doc); err != nil {
		panic(err) // refDoc holds only finite floats, strings and ints
	}
	r.srv = httptest.NewServer(http.HandlerFunc(echo))
	for range callers {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return r
}

// echo decodes a refDoc and encodes it back.
func echo(w http.ResponseWriter, req *http.Request) {
	var d refDoc
	if err := json.NewDecoder(req.Body).Decode(&d); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	buf, err := json.Marshal(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

// slice runs one reference slice and returns its wall time.
func (r *refLoad) slice() (time.Duration, error) {
	errs := make([]error, r.callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range r.callers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if r.useMath {
				if s := refMath(refMathIters); math.IsNaN(s) || math.IsInf(s, 0) {
					errs[k] = fmt.Errorf("reference math returned %g", s)
				}
				return
			}
			for i := 0; i < refRoundTrips && errs[k] == nil; i++ {
				errs[k] = r.roundTrip(r.clients[k])
			}
		}(k)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference slice: %w", err)
		}
	}
	return d, nil
}

func (r *refLoad) roundTrip(c *http.Client) error {
	resp, err := c.Post(r.srv.URL, "application/json", bytes.NewReader(r.payload))
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(reply, r.payload) {
		return fmt.Errorf("echo answered %d: %s", resp.StatusCode, reply)
	}
	return nil
}

// refMath is serve-cold's reference: the exp/log/pow mix the solvers'
// overhead functions evaluate.
func refMath(n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		x := 0.5 + float64(i%1000)*1e-3
		s += math.Exp(-x) + 0.5*math.Log1p(x) + 1e-3*math.Pow(x, 0.3)
	}
	return s
}

func (r *refLoad) close() {
	if r.srv == nil {
		return
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.srv.Close()
}
