package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// request is one scheduled ingest request of an open loop.
type request struct {
	// due is when the request is to be sent, from the start of its loop.
	due  time.Duration
	path string
	body []byte
}

// wireMatch and wireResponse are the service's ingest response on the
// wire; the response carries only the matches flagged duplicate.
type wireMatch struct {
	CaseA     string  `json:"caseA"`
	CaseB     string  `json:"caseB"`
	Score     float64 `json:"score"`
	Duplicate bool    `json:"duplicate"`
}

type wireResponse struct {
	Ingested   int         `json:"ingested"`
	Scored     int         `json:"scored"`
	Duplicates int         `json:"duplicates"`
	Matches    []wireMatch `json:"matches"`
}

// outcome is what happened to one request. Times are offsets from the
// start of its loop.
type outcome struct {
	due, sent, done time.Duration
	err             error
	resp            wireResponse
}

// latency is the request's latency counted from when it was due, so a
// stall also charges the wait it imposes on the requests behind it.
func (o outcome) latency() time.Duration { return o.done - o.due }

// late is how far behind schedule the generator handed the request to a
// connection; it measures the generator, not the service.
func (o outcome) late() time.Duration { return o.sent - o.due }

// openLoop sends reqs on their schedule, whatever the service's pace, over
// conns connections: a dispatcher releases each request at its due time
// into a FIFO that the connection workers drain. It returns when every
// request has completed.
func openLoop(client *http.Client, baseURL string, reqs []request, conns int) []outcome {
	out := make([]outcome, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks and the
	// loop stays open when every connection is busy.
	ready := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				resp, err := post(client, baseURL+reqs[i].path, reqs[i].body)
				out[i].done = time.Since(start)
				out[i].resp, out[i].err = resp, err
			}
		}()
	}
	for i, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		out[i].due = r.due
		out[i].sent = time.Since(start)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}

// post sends one ingest request; any status but 200 is a failed request.
func post(client *http.Client, url string, body []byte) (wireResponse, error) {
	var wr wireResponse
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return wr, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return wr, err
	}
	if resp.StatusCode != http.StatusOK {
		return wr, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &wr); err != nil {
		return wr, fmt.Errorf("decoding response: %w", err)
	}
	return wr, nil
}

// newClient returns an HTTP client that keeps at most conns connections to
// the service open.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// percentile returns the q-quantile (0 < q <= 1) of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
