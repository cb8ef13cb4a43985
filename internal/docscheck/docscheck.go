// Package docscheck validates the repository's own markdown
// documentation: every relative link must point at a file that exists
// and every fragment at a heading anchor that GitHub would generate.
// It deliberately skips network URLs (CI must stay hermetic) and the
// paper/reference material shipped with the repo (PAPER.md, PAPERS.md,
// SNIPPETS.md, ISSUE.md), whose links point outside it by design.
package docscheck

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Docs lists the repo-relative markdown files the checker owns:
// the top-level docs plus everything under docs/.
func Docs(root string) ([]string, error) {
	files := []string{"README.md", "CHANGES.md", "ROADMAP.md"}
	extra, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	for _, f := range extra {
		rel, err := filepath.Rel(root, f)
		if err != nil {
			return nil, err
		}
		files = append(files, rel)
	}
	return files, nil
}

// linkRE matches inline markdown links and images: [text](target).
// Reference-style links are not used in this repo's docs.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

var headingRE = regexp.MustCompile("(?m)^#{1,6}[ \t]+(.+)$")

// Check validates every relative link in the repo's own markdown docs
// under root and returns one message per broken link.
func Check(root string) ([]string, error) {
	files, err := Docs(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, rel := range files {
		path := filepath.Join(root, rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("docscheck: %s: %w", rel, err)
		}
		src := stripCodeBlocks(string(data))
		for _, m := range linkRE.FindAllStringSubmatch(src, -1) {
			if msg := checkLink(root, rel, m[1]); msg != "" {
				problems = append(problems, msg)
			}
		}
	}
	return problems, nil
}

// checkLink validates one link target found in file (repo-relative)
// and returns a problem description, or "" if the link is fine.
func checkLink(root, file, target string) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return "" // network URLs are out of scope: CI stays offline
	}
	pathPart, frag, _ := strings.Cut(target, "#")
	dest := filepath.Join(root, filepath.Dir(file), pathPart)
	if pathPart == "" {
		dest = filepath.Join(root, file) // same-file fragment
	}
	if _, err := os.Stat(dest); err != nil {
		return fmt.Sprintf("%s: broken link %q: %s does not exist", file, target, pathPart)
	}
	if frag == "" {
		return ""
	}
	data, err := os.ReadFile(dest)
	if err != nil || !strings.HasSuffix(dest, ".md") {
		return fmt.Sprintf("%s: link %q has a fragment but %s is not a readable markdown file", file, target, pathPart)
	}
	for _, h := range headingRE.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
		if Anchor(h[1]) == frag {
			return ""
		}
	}
	return fmt.Sprintf("%s: link %q: no heading anchors to #%s", file, target, frag)
}

// Anchor converts a heading to the fragment identifier GitHub
// generates: lowercase, markdown/punctuation stripped, spaces and
// hyphens kept as hyphens. Duplicate-heading "-n" suffixes are not
// modeled; the repo's docs keep headings unique.
func Anchor(heading string) string {
	h := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == ' ', r == '-':
			b.WriteByte('-')
		case r > 127: // unicode letters survive; symbols/emoji do not
			if strings.ContainsRune("–—‘’“”§⌈⌉·×→⋈‖", r) {
				continue
			}
			b.WriteRune(r)
		}
	}
	return b.String()
}

// stripCodeBlocks blanks fenced code blocks and inline code spans so
// bracketed text inside them (shell snippets, Go slices) is not
// mistaken for links and shell comments are not mistaken for headings.
func stripCodeBlocks(src string) string {
	var b strings.Builder
	inFence := false
	for _, line := range strings.SplitAfter(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			b.WriteString("\n")
			continue
		}
		if inFence {
			b.WriteString("\n")
			continue
		}
		b.WriteString(stripInlineCode(line))
	}
	return b.String()
}

func stripInlineCode(line string) string {
	parts := strings.Split(line, "`")
	for i := 1; i < len(parts); i += 2 {
		parts[i] = ""
	}
	return strings.Join(parts, "")
}

var flagRE = regexp.MustCompile("`-([a-z][a-z-]*)")

// CLIFlags returns the flag names README documents for binary ("osql"
// or "oservd"): every `-flag` in the first column of the shared
// "flag (osql / oservd)" table plus those of the "<binary>-only:"
// paragraph. The binaries' tests hold their registered flag sets
// against it, so a flag added, removed or listed under the wrong
// binary fails CI.
func CLIFlags(readme, binary string) []string {
	var names []string
	inTable, inOnly := false, false
	for _, line := range strings.Split(readme, "\n") {
		cell := ""
		switch {
		case strings.HasPrefix(line, "| flag (osql / oservd)"):
			inTable = true
		case inTable && strings.HasPrefix(line, "|"):
			cell, _, _ = strings.Cut(line[1:], "|")
		case strings.Contains(line, "-only:"):
			inTable, inOnly = false, strings.HasPrefix(line, binary+"-only:")
		case strings.TrimSpace(line) == "":
			inTable, inOnly = false, false
		}
		if inOnly {
			cell = line
		}
		for _, m := range flagRE.FindAllStringSubmatch(cell, -1) {
			names = append(names, m[1])
		}
	}
	return names
}
