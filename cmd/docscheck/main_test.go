package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoDocsClean runs the checker against the real repository: no broken
// links, every documented query example compiles.
func TestRepoDocsClean(t *testing.T) {
	root := "../.."
	docs, err := docFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 2 {
		t.Fatalf("found %d doc files, want README.md plus docs/", len(docs))
	}
	for _, doc := range docs {
		problems, err := checkLinks(root, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
	problems, err := checkExamples(filepath.Join(root, "docs", "QUERYLANG.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	problems, err = checkCapabilities(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCheckCapabilitiesFindsDrift drops a row from a correct table and
// renames another: both tables must be reported as disagreeing with the code.
func TestCheckCapabilitiesFindsDrift(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []struct{ old, new string }{
		{"| 6 | `result-vectors` |", "| 6 | `result-vector` |"},
		{"| 1 | `stats` (retired) |", "| 1 | `stats` |"},
		{"| 0 | `cancel` |", "0 cancel"},
	} {
		if !strings.Contains(string(data), edit.old) {
			t.Fatalf("the guide has no row %q", edit.old)
		}
		doc := filepath.Join(t.TempDir(), "OPERATIONS.md")
		if err := os.WriteFile(doc, []byte(strings.Replace(string(data), edit.old, edit.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		problems, err := checkCapabilities(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 1 {
			t.Errorf("table with %q: problems = %q, want one", edit.new, problems)
		}
	}
}

// TestCheckLinksFindsBreakage builds a small doc tree with one good and one
// broken relative link and checks only the broken one is reported; external
// URLs and anchors must not be flagged.
func TestCheckLinksFindsBreakage(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "real.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(root, "index.md")
	content := "[ok](real.md) [frag](real.md#part) [gone](missing.md)\n" +
		"[ext](https://example.com/x) [anchor](#here)\n"
	if err := os.WriteFile(doc, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkLinks(root, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "missing.md") {
		t.Fatalf("problems = %q, want exactly one about missing.md", problems)
	}
}

// TestCheckExamplesFindsBadQuery writes a reference with one valid and one
// invalid example and checks the invalid one is reported with its line.
func TestCheckExamplesFindsBadQuery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "QUERYLANG.md")
	content := "intro\n\n```datalog\nn(count(*) as N) :- trades(_, _, _, _).\n```\n" +
		"text\n\n```datalog\nans(X) :- nosuch(X).\n```\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := checkExamples(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], `unknown table "nosuch"`) {
		t.Fatalf("problems = %q, want exactly one about nosuch", problems)
	}
	if !strings.Contains(problems[0], ":9:") {
		t.Errorf("problem %q does not carry the fence's line number", problems[0])
	}
}
