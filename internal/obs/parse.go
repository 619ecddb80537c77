package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePrometheus reads a Prometheus text exposition (version 0.0.4) into
// the flattened samples Gather returns, in line order. A sample takes its
// kind from its family's # TYPE line: counters and every series of a
// histogram (_bucket, _sum, _count) are counters, anything else is a
// gauge. Parsing a registry's WritePrometheus output yields exactly its
// Gather. The input comes from another process, so every line is checked:
// a malformed one is an error naming its line number.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	types := map[string]string{}
	var out []Sample
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		s, err := parseSample(line, types)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string, types map[string]string) (Sample, error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return Sample{}, fmt.Errorf("%q: missing value", line)
	}
	s := Sample{Name: line[:i], Kind: sampleKind(line[:i], types)}
	if !validName(s.Name) {
		return Sample{}, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		labels, after, err := ParseLabels(rest)
		if err != nil {
			return Sample{}, fmt.Errorf("%s: %w", s.Name, err)
		}
		s.Labels, rest = labels, after
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return Sample{}, fmt.Errorf("%s: value: %w", s.Name, err)
	}
	s.Value = v
	return s, nil
}

// sampleKind maps a sample name to the kind its family's # TYPE implies.
func sampleKind(name string, types map[string]string) string {
	typ, ok := types[name]
	if !ok {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, cut := strings.CutSuffix(name, suffix); cut && types[base] == "histogram" {
				return SampleCounter
			}
		}
	}
	if typ == "counter" {
		return SampleCounter
	}
	return SampleGauge
}

// ParseLabels parses the label set `{name="value",...}` at the start of s
// and returns the labels (nil for `{}`) and the text after the closing
// brace. Values use the exposition's escapes \\, \" and \n, the inverse
// of EscapeLabelValue. Spaces may surround names, '=' and ',', and a
// trailing comma is allowed.
func ParseLabels(s string) ([]Label, string, error) {
	rest, ok := strings.CutPrefix(s, "{")
	if !ok {
		return nil, "", errors.New("label set must open with '{'")
	}
	var out []Label
	for {
		rest = strings.TrimLeft(rest, " \t")
		if after, ok := strings.CutPrefix(rest, "}"); ok {
			return out, after, nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label set at %q", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		rest, ok = strings.CutPrefix(strings.TrimLeft(rest[eq+1:], " \t"), `"`)
		if !ok {
			return nil, "", fmt.Errorf("label %q: value must be quoted", name)
		}
		value, after, ok := unescapeLabelValue(rest)
		if !ok {
			return nil, "", fmt.Errorf("label %q: unterminated value", name)
		}
		out = append(out, Label{Name: name, Value: value})
		rest = strings.TrimLeft(after, " \t")
		if after, ok := strings.CutPrefix(rest, ","); ok {
			rest = after
		} else if !strings.HasPrefix(rest, "}") {
			return nil, "", fmt.Errorf("label %q: want ',' or '}' after the value, got %q", name, rest)
		}
	}
}

// unescapeLabelValue reads a label value up to its closing quote and
// returns it with the escapes undone, the text after the quote, and
// whether the quote closed. An escape other than \\, \" or \n stands for
// the escaped byte.
func unescapeLabelValue(s string) (string, string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return b.String(), s[i+1:], true
		case c == '\\' && i+1 < len(s):
			i++
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", false
}

// validName reports whether s is a metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '_' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return s != ""
}
