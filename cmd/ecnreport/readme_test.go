package main

// README.md against the ecnreport that exists: a flag it shows must be
// one a user can pass.

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var (
	// invocationRE finds an ecnreport invocation in a code snippet;
	// group 1 is the rest of the snippet, its arguments.
	invocationRE = regexp.MustCompile(`\becnreport\b(.*)`)
	// flagRE takes a flag's name off an argument (-name or -name=value).
	flagRE = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	// usageFlagRE lists the flags in -h output.
	usageFlagRE = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	// inlineRE is one inline code span of a prose line.
	inlineRE = regexp.MustCompile("`([^`]+)`")
)

// readmeFlags returns the flags README.md shows for ecnreport: those
// after "ecnreport" in a fenced line or an inline code span, up to a
// shell operator or comment.
func readmeFlags(readme string) []string {
	var flags []string
	fenced := false
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		spans := []string{line}
		if !fenced {
			spans = nil
			for _, m := range inlineRE.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
		}
		for _, span := range spans {
			m := invocationRE.FindStringSubmatch(span)
			if m == nil {
				continue
			}
			for _, arg := range strings.Fields(m[1]) {
				if strings.ContainsAny(arg[:1], "#&|;>") {
					break
				}
				if f := flagRE.FindStringSubmatch(arg); f != nil {
					flags = append(flags, f[1])
				}
			}
		}
	}
	return flags
}

// TestREADMENamesLiveSurface: every flag README.md shows for ecnreport
// is in ecnreport -h.
func TestREADMENamesLiveSurface(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ecnreport -h: %v\n%s", err, stderr.String())
	}
	usage := make(map[string]bool)
	for _, m := range usageFlagRE.FindAllStringSubmatch(stderr.String(), -1) {
		usage[m[1]] = true
	}
	if len(usage) == 0 {
		t.Fatal("ecnreport -h lists no flags")
	}
	shown := readmeFlags(string(readFile(t, "../../README.md")))
	if len(shown) == 0 {
		t.Fatal("README shows no ecnreport flags")
	}
	for _, f := range shown {
		if !usage[f] {
			t.Errorf("README shows ecnreport -%s; ecnreport -h has no such flag", f)
		}
	}
}
