package main

// README.md against the reprod that exists: a flag or route the README
// shows must be one a user can actually pass or reach.

import (
	"net/http"
	"regexp"
	"strings"
	"testing"
)

var (
	// subcommandRE finds a reprod invocation in a code snippet; group 2
	// is the rest of the snippet, its arguments.
	subcommandRE = regexp.MustCompile(`\breprod (serve|worker|run)\b(.*)`)
	// flagRE takes a flag's name off an argument (-name or -name=value).
	flagRE = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	// usageFlagRE lists the flags in a subcommand's -h output.
	usageFlagRE = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	// curlRE takes the /v1 path off a curl line, bodyRE its -d body.
	curlRE = regexp.MustCompile(`^curl .*localhost:\d+(/v1/\S*)`)
	bodyRE = regexp.MustCompile(`-d '([^']*)'`)
	// inlineRE is one inline code span of a prose line.
	inlineRE = regexp.MustCompile("`([^`]+)`")
)

// readmeSnippet is one piece of code README shows: a fenced line (its
// continuation lines joined) or an inline code span.
type readmeSnippet struct {
	text   string
	fenced bool
	// service is set for inline spans in the service walkthrough: from
	// the first snippet that runs reprod serve to the next "## "
	// heading. A bare flag there (`-lease-ttl`) is a reprod flag.
	service bool
}

func readmeSnippets(readme string) []readmeSnippet {
	var out []readmeSnippet
	fenced, service, seenServe := false, false, false
	pending := ""
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced && strings.HasPrefix(line, "## ") {
			service = false
		}
		var spans []string
		if fenced {
			if cont, ok := strings.CutSuffix(line, `\`); ok {
				pending += strings.TrimSpace(cont) + " "
				continue
			}
			spans, pending = []string{pending + strings.TrimSpace(line)}, ""
		} else {
			for _, m := range inlineRE.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
		}
		for _, text := range spans {
			if !seenServe && strings.Contains(text, "reprod serve") {
				seenServe, service = true, true
			}
			out = append(out, readmeSnippet{text: text, fenced: fenced, service: service && !fenced})
		}
	}
	return out
}

// readmeFlags returns the flags README shows, by subcommand; "" holds
// the bare flags of the service walkthrough, which name no subcommand.
func readmeFlags(snippets []readmeSnippet) map[string][]string {
	flags := make(map[string][]string)
	for _, s := range snippets {
		if m := subcommandRE.FindStringSubmatch(s.text); m != nil {
			for _, arg := range strings.Fields(m[2]) {
				if strings.ContainsAny(arg[:1], "#&|;>") {
					break
				}
				if f := flagRE.FindStringSubmatch(arg); f != nil {
					flags[m[1]] = append(flags[m[1]], f[1])
				}
			}
			continue
		}
		if f := flagRE.FindStringSubmatch(s.text); f != nil && s.service {
			flags[""] = append(flags[""], f[1])
		}
	}
	return flags
}

// usageFlags returns the flags reprod sub -h lists.
func usageFlags(t *testing.T, sub string) map[string]bool {
	t.Helper()
	p := reprod(t, "", sub, "-h")
	p.wait(t)
	flags := make(map[string]bool)
	for _, m := range usageFlagRE.FindAllStringSubmatch(p.stderr.String(), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("reprod %s -h lists no flags:\n%s", sub, p.stderr.String())
	}
	return flags
}

// TestREADMENamesLiveSurface: every flag README.md shows for a reprod
// subcommand appears in that subcommand's -h output (a bare flag in the
// service walkthrough in reprod serve's or reprod worker's), and every
// /v1 path of its curl lines, requested in README order against a
// coordinator, answers something other than 404.
func TestREADMENamesLiveSurface(t *testing.T) {
	snippets := readmeSnippets(string(readFile(t, "../../README.md")))

	t.Run("flags", func(t *testing.T) {
		usage := make(map[string]map[string]bool)
		for _, sub := range []string{"serve", "worker", "run"} {
			usage[sub] = usageFlags(t, sub)
		}
		shown := readmeFlags(snippets)
		if len(shown["serve"]) == 0 || len(shown[""]) == 0 {
			t.Fatalf("README flags %v: want reprod serve commands and a service walkthrough", shown)
		}
		for sub, flags := range shown {
			for _, f := range flags {
				switch {
				case sub != "" && !usage[sub][f]:
					t.Errorf("README shows reprod %s -%s; reprod %s -h has no such flag", sub, f, sub)
				case sub == "" && !usage["serve"][f] && !usage["worker"][f]:
					t.Errorf("README's service walkthrough names -%s; neither reprod serve -h nor reprod worker -h has it", f)
				}
			}
		}
	})

	t.Run("paths", func(t *testing.T) {
		c := serve(t, t.TempDir(), "")
		requests := 0
		for _, s := range snippets {
			m := curlRE.FindStringSubmatch(s.text)
			if !s.fenced || m == nil {
				continue
			}
			method, body := http.MethodGet, ""
			if b := bodyRE.FindStringSubmatch(s.text); b != nil {
				method, body = http.MethodPost, b[1]
			}
			req, err := http.NewRequestWithContext(t.Context(), method, c.url+m[1], strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			requests++
			if resp.StatusCode == http.StatusNotFound {
				t.Errorf("README: %s %s answers 404", method, m[1])
			}
		}
		if requests == 0 {
			t.Fatal("README has no curl lines")
		}
	})
}
