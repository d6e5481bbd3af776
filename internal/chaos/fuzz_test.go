package chaos

import "testing"

// FuzzCampaignCodec fuzzes the reproducer grammar from both ends. Every
// generated campaign must survive Parse(c.String()) with its line
// unchanged; and any line Parse accepts (the committed corpus seeds the
// search) must encode to a line that parses back to the same encoding,
// so a reproducer written by one run is read the same by the next. An
// accepted line small enough to run quickly (dur <= 600, n <= 8) is also
// run, because a line Parse accepts must run without panicking.
func FuzzCampaignCodec(f *testing.F) {
	corpus := readCorpus(f)
	for i, e := range corpus {
		if _, err := Parse(e.line); err != nil {
			f.Fatalf("%s: %v", e.path, err)
		}
		f.Add(uint64(i+1), e.line)
	}
	f.Add(uint64(len(corpus)+1), "v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=300 sync=30 faults=crash:0@NaN+10")
	f.Add(uint64(len(corpus)+2), "v1 seed=1 n=3 topo=mesh fn=MM rec=0 dur=1000000 sync=30 faults=stop:0@1000000")
	f.Fuzz(func(t *testing.T, seed uint64, line string) {
		for _, in := range []string{Generate(seed).String(), line} {
			c, err := Parse(in)
			if err != nil {
				if in != line {
					t.Fatalf("seed %d: Parse(%q): %v", seed, in, err)
				}
				continue // arbitrary text may be rejected, never mangled
			}
			canon := c.String()
			if in != line && canon != in {
				t.Fatalf("seed %d: round trip changed the line:\n in: %s\nout: %s", seed, in, canon)
			}
			again, err := Parse(canon)
			if err != nil {
				t.Fatalf("Parse rejects its own encoding %q of %q: %v", canon, in, err)
			}
			if got := again.String(); got != canon {
				t.Fatalf("encoding is not a fixed point:\n in: %s\n 1st: %s\n 2nd: %s", in, canon, got)
			}
			if c.Dur <= 600 && c.N <= 8 {
				_, _ = Run(c) // any verdict will do; a panic fails the target
			}
		}
	})
}
