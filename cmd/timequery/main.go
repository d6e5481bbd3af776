// Command timequery queries a set of UDP time servers, prints each
// server's interval, and combines them as a syncer would, in one pass over
// a clock never set: rule IM-2 (udptime.SyncIM) by default, or
// fault-tolerant selection (udptime.SyncSelect, -select) when some
// servers may be falsetickers. The combined bound is that clock's own.
//
// Usage:
//
//	timequery -servers 127.0.0.1:3123,127.0.0.1:3124,127.0.0.1:3125
//	timequery -servers ... -select
//
// The exit status is nonzero if the servers are mutually inconsistent (at
// least one of them must be wrong) or unreachable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"disttime/internal/udptime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "timequery:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("timequery", flag.ContinueOnError)
	var (
		servers = fs.String("servers", "", "comma-separated UDP time server addresses")
		doSel   = fs.Bool("select", false, "reject falsetickers with majority selection instead of plain intersection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *servers == "" {
		return fmt.Errorf("no servers given (-servers host:port,host:port,...)")
	}
	addrs := strings.Split(*servers, ",")

	client := udptime.NewClient(time.Second, nil)
	defer client.Close()
	ms, err := client.QueryMany(addrs)
	if err != nil && len(ms) == 0 {
		return fmt.Errorf("all queries failed: %w", err)
	}
	if err != nil {
		fmt.Fprintf(out, "warning: some queries failed: %v\n", err)
	}

	fmt.Fprintf(out, "%-22s %-4s %-28s %-12s %-10s %s\n",
		"SERVER", "ID", "CLOCK", "MAX ERROR", "RTT", "OFFSET INTERVAL (s)")
	// names counts the synchronized measurements, as the sync rules do.
	var names []string
	for _, m := range ms {
		iv := m.OffsetInterval()
		note := ""
		if m.Unsynchronized {
			note = " (unsynchronized, ignored)"
		} else {
			names = append(names, m.Addr)
		}
		fmt.Fprintf(out, "%-22s %-4d %-28s %-12v %-10v [%.6f, %.6f]%s\n",
			m.Addr, m.ServerID, m.C.Format(time.RFC3339Nano), m.E, m.RTT.Round(time.Microsecond),
			iv.Lo, iv.Hi, note)
	}
	if len(names) == 0 {
		return fmt.Errorf("no synchronized servers answered")
	}

	// Combine the way a syncer does: one pass of the rule over a clock
	// never set, which reads the system time with no bound until then.
	dc, err := udptime.NewDisciplinedClock(0)
	if err != nil {
		return err
	}
	var mid float64 // the applied offset interval's midpoint, seconds
	if *doSel {
		sel, err := udptime.SyncSelect(dc, ms)
		if err != nil {
			return fmt.Errorf("selection: no majority of the %d servers agrees", len(names))
		}
		for _, idx := range sel.Falsetickers {
			fmt.Fprintf(out, "falseticker rejected: %s\n", names[idx])
		}
		mid = sel.Interval.Midpoint()
	} else {
		iv, err := udptime.SyncIM(dc, ms)
		if err != nil {
			return fmt.Errorf("servers are mutually inconsistent: at least one must be wrong (rerun with -select)")
		}
		mid = iv.Midpoint()
	}

	// The bound is the clock's own, rounded outward to the nanosecond.
	now, maxErr, _ := dc.Now()
	offset := time.Duration(mid * float64(time.Second))
	fmt.Fprintf(out, "\ncombined: local clock offset %v +/- %v\n", offset, maxErr)
	fmt.Fprintf(out, "true time: %s +/- %v\n", now.Format(time.RFC3339Nano), maxErr)
	return nil
}
