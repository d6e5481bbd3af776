package chaos

import (
	"fmt"

	"disttime/internal/service"
	"disttime/internal/simnet"
)

// engine schedules the dynamic faults of a campaign onto a built service.
// Clock-failure wrappers are armed at construction time (they carry their
// own fail-at); every other kind's start and end actions are simulator
// events the engine installs before the run starts, so the whole schedule
// is part of the deterministic event stream.
//
// The engine also feeds the fault-activation counters of an attached
// observability sink. Counting happens inside the events the schedule
// already contains — no extra events — so an observed campaign executes
// the same deterministic trajectory as an unobserved one.
type engine struct {
	svc    *service.Service
	sink   *obsSink
	faults []Fault // the schedule, whose loss and delay windows rewire reads
}

// install schedules every dynamic fault of a validated campaign: a start
// event and, for a windowed kind, an end event, each tagged with the
// fault's index. It must run before the simulation advances.
func (e *engine) install(c Campaign) {
	e.faults = c.Faults
	start := e.svc.Sim.Register(e.start)
	end := e.svc.Sim.Register(e.end)
	for i, f := range c.Faults {
		k := &kinds[f.Kind]
		e.sink.faultsInstalled.Inc()
		if k.wrap != nil {
			// Armed inside the clock wrappers at build time; counted as
			// armed here (the wrapper fires without a simulator event).
			e.sink.clockFaultsArm.Inc()
			continue
		}
		e.svc.Sim.At(f.At, start, uint32(i), 0)
		if k.windowed {
			e.svc.Sim.At(f.At+f.Dur, end, uint32(i), 0)
		}
	}
}

// start begins fault i.
func (e *engine) start(i, _ uint32) bool {
	f := e.faults[i]
	e.sink.activated(f.Kind)
	kinds[f.Kind].start(e, f)
	return true
}

// end ends windowed fault i.
func (e *engine) end(i, _ uint32) bool {
	f := e.faults[i]
	kinds[f.Kind].end(e, f)
	return true
}

// rewire is the start and end action of loss bursts and delay spikes: it
// recomputes the network-wide loss and delay overlays from the windows
// active now and replaces every link's config accordingly. Links()
// enumerates in deterministic order and Connect replaces in place, so a
// rewire is itself a deterministic event.
func (e *engine) rewire(Fault) {
	now := e.svc.Sim.Now()
	lossP, mult := 0.0, 1.0
	for _, f := range e.faults {
		if now >= f.At && now < f.At+f.Dur {
			switch f.Kind {
			case LossBurst:
				if f.Param > lossP {
					lossP = f.Param
				}
			case DelaySpike:
				if f.Param > mult {
					mult = f.Param
				}
			}
		}
	}
	// A delay spike is the nominal band with both edges times its factor.
	d := nominalDelay()
	d.Min, d.Max = d.Min*mult, d.Max*mult
	cfg := simnet.LinkConfig{Delay: d, Loss: lossP}
	for _, l := range e.svc.Net.Links() {
		// Connect replaces an existing link's configuration; the nodes and
		// the link set are unchanged, so the error path is unreachable.
		if err := e.svc.Net.Connect(l.A, l.B, cfg); err != nil {
			panic(fmt.Sprintf("chaos: rewire: %v", err))
		}
	}
}
