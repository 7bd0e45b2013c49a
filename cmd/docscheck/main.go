// Command docscheck validates the repository's documentation: every relative
// markdown link in README.md and docs/ must point at an existing file, every
// fenced ```datalog query example in docs/QUERYLANG.md must compile against
// the demo catalog, and the capability table in docs/OPERATIONS.md must list
// exactly the bits of wire.Capabilities. CI runs it in the docs job, so the
// reference cannot drift from the language and the protocol it documents.
//
// Usage:
//
//	docscheck [-root .]
//
// Exits non-zero listing every broken link, every example that fails to
// parse, resolve or compile, and every capability row that disagrees with the
// code.
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"csq/internal/demo"
	"csq/internal/lang"
	"csq/internal/wire"
)

// mdLink matches inline markdown links; images and autolinks are excluded by
// the capture and the URL filters in checkLinks.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	docs, err := docFiles(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	for _, doc := range docs {
		p, err := checkLinks(*root, doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		problems = append(problems, p...)
	}
	p, err := checkExamples(filepath.Join(*root, "docs", "QUERYLANG.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	problems = append(problems, p...)
	p, err = checkCapabilities(filepath.Join(*root, "docs", "OPERATIONS.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	problems = append(problems, p...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d markdown file(s), the query examples and the capability table are clean\n", len(docs))
}

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(root string) ([]string, error) {
	files := []string{filepath.Join(root, "README.md")}
	entries, err := os.ReadDir(filepath.Join(root, "docs"))
	if err != nil {
		if os.IsNotExist(err) {
			return files, nil
		}
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join(root, "docs", e.Name()))
		}
	}
	return files, nil
}

// checkLinks verifies that every relative link target in the file exists on
// disk. External URLs, anchors within the same file and substitution
// placeholders are skipped; a #fragment on a relative target is stripped
// before the existence check.
func checkLinks(root, file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var problems []string
	rel := func(p string) string {
		if r, err := filepath.Rel(root, p); err == nil {
			return r
		}
		return p
	}
	for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		switch {
		case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
			continue // external
		case strings.HasPrefix(target, "#"):
			continue // intra-file anchor
		case strings.Contains(target, "OWNER/REPO"):
			continue // badge placeholder, substituted on publication
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
		if _, err := os.Stat(resolved); err != nil {
			problems = append(problems, fmt.Sprintf("%s: broken link %q (%s does not exist)", rel(file), m[1], rel(resolved)))
		}
	}
	return problems, nil
}

// checkExamples extracts every ```datalog fence from the language reference
// and compiles it against the demo catalog, so each documented example is
// guaranteed to parse, resolve and type-check.
func checkExamples(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cat, _, err := demo.New()
	if err != nil {
		return nil, err
	}
	var problems []string
	lines := strings.Split(string(data), "\n")
	count := 0
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```datalog" {
			continue
		}
		start := i + 1
		var fence []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			fence = append(fence, lines[i])
		}
		query := strings.TrimSpace(strings.Join(fence, "\n"))
		count++
		if _, err := lang.Compile(cat, query); err != nil {
			problems = append(problems, fmt.Sprintf("%s:%d: example does not compile: %v", path, start+1, err))
		}
	}
	if count == 0 {
		problems = append(problems, fmt.Sprintf("%s: no ```datalog examples found", path))
	}
	return problems, nil
}

// capabilityRow matches a row of the operations guide's capability table:
// bit number, name in backticks, and "(retired)" where the bit is.
var capabilityRow = regexp.MustCompile("(?m)^\\| (\\d+) \\| `([a-z-]+)`( \\(retired\\))? \\|")

// checkCapabilities holds the guide's capability table to wire.Capabilities:
// the same bits under the same names, in the same order, retired ones marked.
func checkCapabilities(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var documented []string
	for _, m := range capabilityRow.FindAllStringSubmatch(string(data), -1) {
		documented = append(documented, m[1]+" "+m[2]+m[3])
	}
	var defined []string
	for _, c := range wire.Capabilities {
		row := fmt.Sprintf("%d %s", bits.TrailingZeros32(c.Bit), c.Name)
		if c.Retired {
			row += " (retired)"
		}
		defined = append(defined, row)
	}
	if got, want := strings.Join(documented, ", "), strings.Join(defined, ", "); got != want {
		return []string{fmt.Sprintf("%s: capability table lists [%s], wire.Capabilities is [%s]", path, got, want)}, nil
	}
	return nil, nil
}
