package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the reproducer-line codec. A campaign serializes to one
// self-contained line,
//
//	v1 seed=7 n=5 topo=mesh fn=IM rec=1 dur=600 sync=30 \
//	  faults=stop:2@120;loss@250+60*0.8;part@300+80=0.1|2.3.4
//
// and parses back to an identical Campaign, so a failing schedule can be
// mailed around, committed under corpus/, and replayed with
// `timesim -chaos -replay`. Numbers round-trip through shortest-decimal
// formatting, so String∘Parse is the identity on generated campaigns.
//
// Fault grammar (one token per fault, ';'-joined):
//
//	stop:<srv>@<at>            stick:<srv>@<at>
//	race:<srv>@<at>*<rate>     false:<srv>@<at>*<jump>
//	loss@<at>+<dur>*<p>        delay@<at>+<dur>*<mult>
//	part@<at>+<dur>=<g>|<g>    crash:<srv>@<at>+<dur>
//	churn:<srv>@<at>+<dur>
//	twoface:<srv>@<at>+<dur>=<p0>,<p1>,...
//	equiv:<srv>@<at>+<dur>=<p0>,<p1>,...
//
// where a partition group <g> is '.'-joined server indices and a
// twoface/equiv offset list is ','-joined per-destination skews (one per
// server, the liar's own slot zero). Which parts a token carries is its
// kind's row in kinds. An empty schedule is written as
// `faults=-`. The optional `mem=1` field enables dynamic membership and
// the optional `txn=1` field enables the commit-wait transaction
// workload; both are omitted when unset, so older reproducer lines
// parse (and re-encode) unchanged.

// fmtF renders a float with the shortest decimal that round-trips.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String encodes the campaign as a one-line reproducer.
func (c Campaign) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v1 seed=%d n=%d topo=%s fn=%s rec=%d",
		c.Seed, c.N, c.Topo, c.FnName, boolBit(c.Recovery))
	if c.Mem {
		b.WriteString(" mem=1")
	}
	if c.Txn {
		b.WriteString(" txn=1")
	}
	fmt.Fprintf(&b, " dur=%s sync=%s faults=", fmtF(c.Dur), fmtF(c.Sync))
	if len(c.Faults) == 0 {
		b.WriteString("-")
		return b.String()
	}
	for i, f := range c.Faults {
		if i > 0 {
			b.WriteString(";")
		}
		b.WriteString(encodeFault(f))
	}
	return b.String()
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}

// encodeFault renders one fault token from its kind's row. Times are
// written without an exponent, whose '+' would read as a window.
func encodeFault(f Fault) string {
	k := f.Kind.spec()
	if k == nil {
		return fmt.Sprintf("?%d", f.Kind)
	}
	fmtT := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var b strings.Builder
	b.WriteString(k.name)
	if k.targeted {
		b.WriteString(":" + strconv.Itoa(f.Target))
	}
	b.WriteString("@" + fmtT(f.At))
	if k.windowed {
		b.WriteString("+" + fmtT(f.Dur))
	}
	if k.draw != nil {
		b.WriteString("*" + fmtF(f.Param))
	}
	if k.groups {
		groups := make([]string, len(f.Groups))
		for g, members := range f.Groups {
			parts := make([]string, len(members))
			for i, idx := range members {
				parts[i] = strconv.Itoa(idx)
			}
			groups[g] = strings.Join(parts, ".")
		}
		b.WriteString("=" + strings.Join(groups, "|"))
	}
	if k.peers {
		offs := make([]string, len(f.Peers))
		for i, off := range f.Peers {
			offs[i] = fmtF(off)
		}
		b.WriteString("=" + strings.Join(offs, ","))
	}
	return b.String()
}

// Parse decodes a reproducer line produced by Campaign.String. The parsed
// campaign is validated.
func Parse(line string) (Campaign, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "v1" {
		return Campaign{}, fmt.Errorf("chaos: reproducer must start with %q", "v1")
	}
	var c Campaign
	seen := make(map[string]bool)
	for _, field := range fields[1:] {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Campaign{}, fmt.Errorf("chaos: malformed field %q", field)
		}
		if seen[key] {
			return Campaign{}, fmt.Errorf("chaos: duplicate field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 10, 64)
		case "n":
			c.N, err = strconv.Atoi(val)
		case "topo":
			c.Topo = val
		case "fn":
			c.FnName = val
		case "rec":
			c.Recovery = val == "1"
			if val != "0" && val != "1" {
				err = fmt.Errorf("want 0 or 1, got %q", val)
			}
		case "mem":
			c.Mem = val == "1"
			if val != "0" && val != "1" {
				err = fmt.Errorf("want 0 or 1, got %q", val)
			}
		case "txn":
			c.Txn = val == "1"
			if val != "0" && val != "1" {
				err = fmt.Errorf("want 0 or 1, got %q", val)
			}
		case "dur":
			c.Dur, err = strconv.ParseFloat(val, 64)
		case "sync":
			c.Sync, err = strconv.ParseFloat(val, 64)
		case "faults":
			c.Faults, err = parseFaults(val)
		default:
			err = fmt.Errorf("unknown field")
		}
		if err != nil {
			return Campaign{}, fmt.Errorf("chaos: field %q: %w", key, err)
		}
	}
	for _, req := range []string{"seed", "n", "topo", "fn", "dur", "sync", "faults"} {
		if !seen[req] {
			return Campaign{}, fmt.Errorf("chaos: missing field %q", req)
		}
	}
	if err := c.Validate(); err != nil {
		return Campaign{}, err
	}
	return c, nil
}

// parseFaults decodes the ';'-joined fault tokens.
func parseFaults(s string) ([]Fault, error) {
	if s == "-" {
		return nil, nil
	}
	var out []Fault
	for _, tok := range strings.Split(s, ";") {
		f, err := parseFault(tok)
		if err != nil {
			return nil, fmt.Errorf("fault %q: %w", tok, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// parseFault decodes one fault token per the grammar above, checking its
// shape against its kind's row.
func parseFault(tok string) (Fault, error) {
	head, rest, ok := strings.Cut(tok, "@")
	if !ok {
		return Fault{}, fmt.Errorf("missing '@'")
	}
	var f Fault
	name, target, targeted := strings.Cut(head, ":")
	for kind := FaultKind(1); int(kind) < len(kinds); kind++ {
		if kinds[kind].name == name {
			f.Kind = kind
		}
	}
	k := f.Kind.spec()
	if k == nil {
		return Fault{}, fmt.Errorf("unknown kind %q", name)
	}
	if k.targeted != targeted {
		return Fault{}, fmt.Errorf("kind %q target mismatch", name)
	}
	if targeted {
		t, err := strconv.Atoi(target)
		if err != nil {
			return Fault{}, fmt.Errorf("target: %w", err)
		}
		f.Target = t
	}
	// rest is <at>[+<dur>][*<param>][=<payload>]. The '=' payload is cut
	// first so group and offset lists never collide with the '*' and '+'
	// cuts below.
	var payload string
	if k.groups || k.peers {
		if rest, payload, ok = strings.Cut(rest, "="); !ok {
			return Fault{}, fmt.Errorf("kind %q missing '='", name)
		}
	}
	rest, paramSpec, hasParam := strings.Cut(rest, "*")
	if hasParam != (k.draw != nil) {
		return Fault{}, fmt.Errorf("kind %q parameter mismatch", name)
	}
	atSpec, durSpec, hasDur := strings.Cut(rest, "+")
	if hasDur != k.windowed {
		return Fault{}, fmt.Errorf("kind %q duration mismatch", name)
	}
	var err error
	if f.At, err = strconv.ParseFloat(atSpec, 64); err != nil {
		return Fault{}, fmt.Errorf("start time: %w", err)
	}
	if hasDur {
		if f.Dur, err = strconv.ParseFloat(durSpec, 64); err != nil {
			return Fault{}, fmt.Errorf("duration: %w", err)
		}
	}
	if hasParam {
		if f.Param, err = strconv.ParseFloat(paramSpec, 64); err != nil {
			return Fault{}, fmt.Errorf("parameter: %w", err)
		}
	}
	if k.groups {
		for _, g := range strings.Split(payload, "|") {
			var members []int
			if g != "" {
				for _, part := range strings.Split(g, ".") {
					idx, err := strconv.Atoi(part)
					if err != nil {
						return Fault{}, fmt.Errorf("group member: %w", err)
					}
					members = append(members, idx)
				}
			}
			f.Groups = append(f.Groups, members)
		}
	}
	if k.peers {
		for _, part := range strings.Split(payload, ",") {
			off, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return Fault{}, fmt.Errorf("peer offset: %w", err)
			}
			f.Peers = append(f.Peers, off)
		}
	}
	return f, nil
}
