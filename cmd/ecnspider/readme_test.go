package main

// README.md against the ecnspider that exists, and the docs against the
// configuration surface that exists: a flag they show must be one a user
// can pass, and an environment knob they name must be one something
// reads.

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// invocationRE finds an ecnspider invocation in a code snippet; group
	// 1 is the rest of the snippet, its arguments.
	invocationRE = regexp.MustCompile(`\becnspider\b(.*)`)
	// flagRE takes a flag's name off an argument (-name or -name=value).
	flagRE = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	// usageFlagRE lists the flags in -h output.
	usageFlagRE = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	// inlineRE is one inline code span of a prose line.
	inlineRE = regexp.MustCompile("`([^`]+)`")
	// knobRE is an environment knob of the two retired families.
	knobRE = regexp.MustCompile(`\b(REPRO|PERF_GATE)_[A-Z0-9_]*`)
)

// readmeFlags returns the flags README.md shows for ecnspider: those
// after "ecnspider" in a fenced line or an inline code span (up to a
// shell operator or comment), and every bare flag of the "Campaign
// flags" section, whose table ecnspider and determinism share.
func readmeFlags(readme string) []string {
	var flags []string
	fenced, table := false, false
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "#") {
			table = strings.HasPrefix(line, "### Campaign flags")
		}
		spans := []string{line}
		if !fenced {
			spans = nil
			for _, m := range inlineRE.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
		}
		for _, span := range spans {
			if m := invocationRE.FindStringSubmatch(span); m != nil {
				for _, arg := range strings.Fields(m[1]) {
					if strings.ContainsAny(arg[:1], "#&|;>") {
						break
					}
					if f := flagRE.FindStringSubmatch(arg); f != nil {
						flags = append(flags, f[1])
					}
				}
			} else if f := flagRE.FindStringSubmatch(span); f != nil && table && !fenced {
				flags = append(flags, f[1])
			}
		}
	}
	return flags
}

// TestREADMENamesLiveSurface: every flag README.md shows for ecnspider
// is in ecnspider -h, and no line of README.md, DESIGN.md or the verify
// skill names a REPRO_* knob other than the test-only REPRO_FAILPOINT,
// or a PERF_GATE_* knob other than PERF_GATE_BASE.
func TestREADMENamesLiveSurface(t *testing.T) {
	t.Run("flags", func(t *testing.T) {
		usage := make(map[string]bool)
		for _, m := range usageFlagRE.FindAllStringSubmatch(ecnspider(t, "-h"), -1) {
			usage[m[1]] = true
		}
		if len(usage) == 0 {
			t.Fatal("ecnspider -h lists no flags")
		}
		shown := readmeFlags(string(readFile(t, "../../README.md")))
		if len(shown) == 0 {
			t.Fatal("README shows no ecnspider flags")
		}
		for _, f := range shown {
			if !usage[f] {
				t.Errorf("README shows ecnspider -%s; ecnspider -h has no such flag", f)
			}
		}
	})

	t.Run("knobs", func(t *testing.T) {
		for _, doc := range []string{"../../README.md", "../../DESIGN.md", "../../.claude/skills/verify/SKILL.md"} {
			b, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(b), "\n") {
				for _, knob := range knobRE.FindAllString(line, -1) {
					if knob != "REPRO_FAILPOINT" && knob != "PERF_GATE_BASE" {
						t.Errorf("%s:%d names %s, which nothing reads", strings.TrimPrefix(doc, "../../"), i+1, knob)
					}
				}
			}
		}
	})
}
