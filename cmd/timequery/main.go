// Command timequery queries a set of UDP time servers, prints each
// server's interval, and combines them: the intersection (algorithm IM)
// by default, or fault-tolerant selection (-select) when some servers may
// be falsetickers.
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

	"disttime/internal/interval"
	"disttime/internal/ntp"
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
		timeout = fs.Duration("timeout", time.Second, "per-server query timeout")
		doSel   = fs.Bool("select", false, "reject falsetickers with majority selection instead of plain intersection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *servers == "" {
		return fmt.Errorf("no servers given (-servers host:port,host:port,...)")
	}
	addrs := strings.Split(*servers, ",")

	client := udptime.NewClient(*timeout, nil)
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
	var readings []ntp.Reading
	for _, m := range ms {
		iv := m.OffsetInterval()
		note := ""
		if m.Unsynchronized {
			note = " (unsynchronized, ignored)"
		} else {
			readings = append(readings, ntp.Reading{
				ID: m.Addr, Interval: iv, RTT: m.RTT.Seconds(),
			})
		}
		fmt.Fprintf(out, "%-22s %-4d %-28s %-12v %-10v [%.6f, %.6f]%s\n",
			m.Addr, m.ServerID, m.C.Format(time.RFC3339Nano), m.E, m.RTT.Round(time.Microsecond),
			iv.Lo, iv.Hi, note)
	}
	if len(readings) == 0 {
		return fmt.Errorf("no synchronized servers answered")
	}

	var common interval.Interval
	if *doSel {
		sel, err := ntp.Select(readings, ntp.Options{})
		if err != nil {
			return fmt.Errorf("selection: %w", err)
		}
		for _, idx := range sel.Falsetickers {
			fmt.Fprintf(out, "falseticker rejected: %s\n", readings[idx].ID)
		}
		common = sel.Interval
	} else {
		ivs := make([]interval.Interval, len(readings))
		for i, r := range readings {
			ivs[i] = r.Interval
		}
		var ok bool
		if common, ok = interval.IntersectAll(ivs); !ok {
			return fmt.Errorf("servers are mutually inconsistent: at least one must be wrong (rerun with -select)")
		}
	}

	offset := time.Duration(common.Midpoint() * float64(time.Second))
	maxErr := time.Duration(common.HalfWidth() * float64(time.Second))
	fmt.Fprintf(out, "\ncombined: local clock offset %v +/- %v\n", offset, maxErr)
	fmt.Fprintf(out, "true time: %s +/- %v\n",
		time.Now().Add(offset).Format(time.RFC3339Nano), maxErr)
	return nil
}
