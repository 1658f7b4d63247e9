// Command wwbreport renders the full reproduction as a single HTML
// file: every text experiment plus SVG versions of the paper's plotted
// figures. The output is self-contained (inline SVG, no scripts).
//
// Usage:
//
//	wwbreport -scale small -o report.html
package main

import (
	"flag"
	"fmt"
	"html"
	"log"
	"os"
	"strings"
	"time"

	"wwb/internal/core"
	"wwb/internal/experiments"
	"wwb/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wwbreport: ")

	var (
		scale   = flag.String("scale", "small", "universe scale: small, default, large, or huge")
		seed    = flag.Uint64("seed", 42, "world generation seed")
		out     = flag.String("o", "report.html", "output path (- for stdout)")
		febOnly = flag.Bool("feb-only", false, "assemble February only (disables sec4.5 and ext-summer detail)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	wcfg, err := world.ConfigForScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.World = wcfg
	cfg.World.Seed = *seed
	if *febOnly {
		cfg = cfg.FebOnly()
	}

	log.Printf("assembling %s study (seed %d)...", *scale, *seed)
	start := time.Now()
	runner := experiments.Runner{Study: core.New(cfg)}
	log.Printf("study ready in %v; rendering...", time.Since(start).Round(time.Second))

	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">
<title>A World Wide View of Browsing the World Wide Web — reproduction report</title>
<style>
body { font-family: sans-serif; max-width: 960px; margin: 2rem auto; padding: 0 1rem; color: #222; }
pre { background: #f6f6f4; padding: 12px; overflow-x: auto; font-size: 12px; line-height: 1.35; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2.2rem; border-bottom: 1px solid #ddd; }
figure { margin: 1rem 0; } .meta { color: #666; font-size: 0.9rem; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>A World Wide View of Browsing the World Wide Web — reproduction report</h1>\n")
	fmt.Fprintf(&b, `<p class="meta">scale %s, seed %d, analysis month %s. `+
		`Generated by wwbreport from a fully synthetic universe; see DESIGN.md and EXPERIMENTS.md.</p>`+"\n",
		html.EscapeString(*scale), *seed, runner.Study.Month)

	// Graphical figures first.
	b.WriteString("<h2>Figures</h2>\n")
	for _, fig := range runner.Figures() {
		fmt.Fprintf(&b, "<figure id=%q>%s<figcaption>%s</figcaption></figure>\n",
			fig.ID+"-svg", fig.SVG, html.EscapeString(fig.Title))
	}

	// Every text experiment.
	for _, id := range experiments.IDs() {
		e, _ := experiments.Lookup(id)
		outText, err := runner.Run(id)
		if err != nil {
			log.Printf("skipping %s: %v", id, err)
			continue
		}
		fmt.Fprintf(&b, "<h2 id=%q>%s</h2>\n<pre>%s</pre>\n",
			html.EscapeString(id), html.EscapeString(e.Title), html.EscapeString(outText))
		log.Printf("rendered %s", id)
	}
	b.WriteString("</body></html>\n")

	if *out == "-" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d bytes)", *out, b.Len())
}
