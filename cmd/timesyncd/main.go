// Command timesyncd is the client-side daemon: it polls a set of UDP time
// servers, disciplines a local software clock with the intersection
// algorithm (or fault-tolerant selection with -select), resets it from one
// server when a round finds it inconsistent (§3 recovery), and logs each
// round. It is the deployable form of the paper's client: "a client simply
// requests the time from any set of servers" — and, with intervals, gets a
// bound on how wrong its clock can be.
//
// Each round asks every server once, over one socket, and waits at most
// a second for the replies.
//
// With -serve the daemon becomes a full peer: it also answers time
// requests on the given address from the clock it is disciplining, which
// is exactly what the paper's time servers do.
//
// Usage:
//
//	timesyncd -servers 127.0.0.1:3123,127.0.0.1:3124 -interval 64s -select
//	timesyncd -servers 127.0.0.1:3123 -serve 127.0.0.1:3200 -id 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"disttime/internal/udptime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "timesyncd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("timesyncd", flag.ContinueOnError)
	var (
		servers  = fs.String("servers", "", "comma-separated UDP time server addresses")
		interval = fs.Duration("interval", 64*time.Second, "polling period (the paper's tau)")
		doSel    = fs.Bool("select", false, "reject falsetickers with majority selection")
		driftPPM = fs.Float64("drift-ppm", 100, "claimed drift bound of the local oscillator, ppm")
		serve    = fs.String("serve", "", "also serve time on this UDP address (become a full peer)")
		id       = fs.Uint64("id", 1, "server identity when serving")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *servers == "" {
		return fmt.Errorf("no servers given (-servers host:port,...)")
	}

	report := func(clock *udptime.DisciplinedClock) func(udptime.SyncReport) {
		return func(r udptime.SyncReport) {
			if r.Err != nil {
				log.Printf("sync failed (%d measurements): %v", r.Measurements, r.Err)
				return
			}
			// The pass ran over the synchronized answers; selection drops
			// the inconsistent ones, and recovery adopts one.
			p := r.Pass
			now, maxErr, _ := clock.Now()
			how, used, falsetickers := "synced", p.Replies-len(p.Result.Inconsistent), 0
			if *doSel {
				falsetickers = len(p.Result.Inconsistent)
			}
			if p.Recovered {
				how, used = "inconsistent, recovered", 1
			}
			log.Printf("%s from %d/%d servers (%d falsetickers): offset %.6fs, clock %s +/- %v",
				how, used, r.Measurements, falsetickers,
				p.After.C-p.Before.C, now.Format(time.RFC3339Nano), maxErr)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *serve != "" {
		// Full peer: serve the disciplined clock while syncing it.
		dc, err := udptime.NewDisciplinedClock(*driftPPM)
		if err != nil {
			return err
		}
		peer, err := udptime.NewPeer(udptime.PeerConfig{
			Addr:      *serve,
			ID:        *id,
			Clock:     dc,
			Peers:     strings.Split(*servers, ","),
			Interval:  *interval,
			Selection: *doSel,
			OnSync:    report(dc),
		})
		if err != nil {
			return err
		}
		log.Printf("timesyncd peer %d serving on %v, polling %s every %v (selection=%v)",
			*id, peer.Addr(), *servers, *interval, *doSel)
		<-stop
		log.Printf("stopped after %d rounds, %d requests answered", peer.Rounds(), peer.Requests())
		return peer.Close()
	}

	dc, err := udptime.NewDisciplinedClock(*driftPPM)
	if err != nil {
		return err
	}
	syncer, err := udptime.NewSyncer(dc, udptime.SyncerConfig{
		Servers:   strings.Split(*servers, ","),
		Interval:  *interval,
		Selection: *doSel,
		OnSync:    report(dc),
	})
	if err != nil {
		return err
	}
	log.Printf("timesyncd polling %s every %v (selection=%v)", *servers, *interval, *doSel)
	<-stop
	syncer.Stop()
	log.Printf("stopped after %d rounds", syncer.Rounds())
	return nil
}
