// Udpservice: the real-network path. Three honest UDP time servers and
// one falseticker run on loopback; a client measures all four, rejects
// the falseticker with majority selection (Marzullo's algorithm), and
// disciplines a local software clock with the intersection. The whole
// exchange is observed: servers and client share one metrics registry,
// the first server exposes it (with /healthz and pprof) on an HTTP
// health listener, and the program prints the Prometheus exposition.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"disttime"
)

// skewedClock serves the system time displaced by a fixed offset — the
// falseticker's broken oscillator.
type skewedClock struct {
	offset time.Duration
	err    time.Duration
}

func (c skewedClock) Now() (time.Time, time.Duration, bool) {
	return time.Now().Add(c.offset), c.err, true
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One registry observes the whole process: servers and client.
	reg := disttime.NewMetricsRegistry()

	// Three honest servers reading the OS clock; the first also serves
	// /healthz, /metrics, and pprof on an HTTP health listener.
	honest, err := disttime.NewSystemClock(5*time.Millisecond, 100)
	if err != nil {
		return err
	}
	var addrs []string
	var healthURL string
	for i := 1; i <= 3; i++ {
		opts := []disttime.UDPServerOption{disttime.WithServerObservability(reg)}
		if i == 1 {
			opts = append(opts, disttime.WithHealthListener("127.0.0.1:0"))
		}
		srv, err := disttime.NewUDPServer("127.0.0.1:0", uint64(i), honest, opts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr().String())
		if ha := srv.HealthAddr(); ha != nil {
			healthURL = "http://" + ha.String()
		}
	}
	// ...and one falseticker, 90 seconds in the future with a tiny
	// claimed error (the dangerous kind).
	liar, err := disttime.NewUDPServer("127.0.0.1:0", 99,
		skewedClock{offset: 90 * time.Second, err: time.Millisecond})
	if err != nil {
		return err
	}
	defer liar.Close()
	addrs = append(addrs, liar.Addr().String())

	// The client disciplines a local software clock; offsets are measured
	// against the clock being steered.
	dc, err := disttime.NewDisciplinedClock(100)
	if err != nil {
		return err
	}
	client := disttime.NewUDPClient(2*time.Second, dc,
		disttime.WithSyncOptions(disttime.SyncOptions{Delta: 100e-6}),
		disttime.WithClientObservability(reg))
	defer client.Close()

	ms, err := client.QueryMany(addrs)
	if err != nil {
		return err
	}
	fmt.Println("measurements:")
	for _, m := range ms {
		iv := m.OffsetInterval()
		fmt.Printf("  server %2d  E=%-12v RTT=%-10v offset in [%.4f, %.4f] s\n",
			m.ServerID, m.E, m.RTT.Round(time.Microsecond), iv.Lo, iv.Hi)
	}

	// Plain intersection fails: the falseticker contradicts the others.
	if _, err := disttime.SyncIM(dc, ms); err != nil {
		fmt.Printf("\nplain intersection: %v\n", err)
	}

	// Majority selection rejects it and disciplines the clock.
	sel, err := disttime.SyncSelect(dc, ms)
	if err != nil {
		return err
	}
	fmt.Printf("selection: %d survivors, %d falseticker(s) rejected\n",
		len(sel.Survivors), len(sel.Falsetickers))

	now, maxErr, synced := dc.Now()
	fmt.Printf("\ndisciplined clock: %s +/- %v (synchronized=%v)\n",
		now.Format(time.RFC3339Nano), maxErr, synced)
	fmt.Printf("offset from OS clock: %v (the falseticker wanted +90s)\n",
		now.Sub(time.Now()).Round(time.Microsecond))

	// The health listener serves the shared registry as Prometheus text
	// (and /healthz and pprof beside it).
	resp, err := http.Get(healthURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("\nmetrics from %s/metrics (histogram buckets elided):\n", healthURL)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "udptime_") && !strings.Contains(line, "_bucket{") {
			fmt.Println("  " + line)
		}
	}
	return nil
}
