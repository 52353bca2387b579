// Package promtext writes and validates the Prometheus text exposition
// format (version 0.0.4) without depending on the Prometheus client
// libraries. The service's operational surface is deliberately small —
// counters, gauges, and labeled per-node series — so a hand-rolled
// writer that emits exactly the grammar a scraper parses, Encode, which
// drives it from a snapshot struct's tags, and a strict validator the
// tests run against every endpoint's output cover it without a new
// dependency.
package promtext

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the exposition-format content type scrapers expect.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Writer emits metric families in the text exposition format. Each
// family's # TYPE line is written once, immediately before its first
// sample, so call all samples of one family together. The first write
// error sticks and every later call is a no-op; check Err once at the
// end.
type Writer struct {
	w     io.Writer
	err   error
	typed map[string]string
}

func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, typed: make(map[string]string)}
}

// Counter emits one sample of a counter family.
func (p *Writer) Counter(name string, v float64, labels ...Label) {
	p.sample("counter", name, v, labels)
}

// Gauge emits one sample of a gauge family.
func (p *Writer) Gauge(name string, v float64, labels ...Label) {
	p.sample("gauge", name, v, labels)
}

// Err reports the first error any write hit.
func (p *Writer) Err() error { return p.err }

func (p *Writer) sample(typ, name string, v float64, labels []Label) {
	if p.err != nil {
		return
	}
	if !validMetricName(name) {
		p.err = fmt.Errorf("promtext: invalid metric name %q", name)
		return
	}
	if prev, ok := p.typed[name]; ok {
		if prev != typ {
			p.err = fmt.Errorf("promtext: metric %q emitted as both %s and %s", name, prev, typ)
			return
		}
	} else {
		if _, err := fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ); err != nil {
			p.err = err
			return
		}
		p.typed[name] = typ
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if !validLabelName(l.Name) {
				p.err = fmt.Errorf("promtext: invalid label name %q", l.Name)
				return
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
	if _, err := io.WriteString(p.w, b.String()); err != nil {
		p.err = err
	}
}

// escapeLabelValue applies the format's label-value escaping: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || name == "__name__" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// Validate strictly checks a full exposition-format payload: every line
// is a # TYPE comment or a sample; every sample's metric name was
// TYPE-declared first (with a valid type); names, label syntax and
// values all parse; no series (name and label set, in any label order)
// has two samples; the payload ends with a newline. It is the scrape
// validation CI runs in place of a real Prometheus parser, so it errs
// on the strict side — output that merely "mostly works" fails here.
func Validate(payload []byte) error {
	text := string(payload)
	if text == "" {
		return fmt.Errorf("promtext: empty payload")
	}
	if !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("promtext: payload does not end with a newline")
	}
	typed := map[string]bool{}
	series := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		lineNo := i + 1
		switch {
		case line == "":
			return fmt.Errorf("promtext: line %d: empty line", lineNo)
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return fmt.Errorf("promtext: line %d: malformed TYPE comment", lineNo)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("promtext: line %d: unknown metric type %q", lineNo, typ)
			}
			if typed[name] {
				return fmt.Errorf("promtext: line %d: duplicate TYPE for %q", lineNo, name)
			}
			typed[name] = true
		case strings.HasPrefix(line, "# HELP "):
			// HELP text is free-form; nothing further to check.
		case strings.HasPrefix(line, "#"):
			return fmt.Errorf("promtext: line %d: comment is neither TYPE nor HELP", lineNo)
		default:
			name, labels, err := validateSample(line)
			if err != nil {
				return fmt.Errorf("promtext: line %d: %w", lineNo, err)
			}
			if !typed[name] {
				return fmt.Errorf("promtext: line %d: sample %q has no preceding TYPE", lineNo, name)
			}
			sort.Strings(labels)
			key := name + "{" + strings.Join(labels, ",") + "}"
			if series[key] {
				return fmt.Errorf("promtext: line %d: repeated series %s", lineNo, key)
			}
			series[key] = true
		}
	}
	return nil
}

// validateSample checks one sample line and returns its metric name
// and its name="value" label pairs, as written.
func validateSample(line string) (name string, labels []string, err error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end <= 0 {
		return "", nil, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:end]
	if !validMetricName(name) {
		return "", nil, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		body, tail, err := splitLabelBlock(rest)
		if err != nil {
			return "", nil, err
		}
		if labels, err = validateLabels(body); err != nil {
			return "", nil, err
		}
		rest = tail
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, fmt.Errorf("missing space before value in %q", line)
	}
	fields := strings.Split(rest[1:], " ")
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, fmt.Errorf("sample %q has %d value fields", line, len(fields))
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return "", nil, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, fmt.Errorf("bad sample timestamp %q", fields[1])
		}
	}
	return name, labels, nil
}

// splitLabelBlock splits "{...}rest", honoring escapes inside quoted
// label values.
func splitLabelBlock(s string) (body, tail string, err error) {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return s[1:i], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label block in %q", s)
}

// validateLabels checks a label block body — name="value" pairs,
// comma-separated, values escaped per the format — and returns the
// pairs.
func validateLabels(body string) ([]string, error) {
	var pairs []string
	for body != "" {
		eq := strings.Index(body, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		if !validLabelName(body[:eq]) {
			return nil, fmt.Errorf("invalid label name %q", body[:eq])
		}
		rest := body[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return nil, fmt.Errorf("label value not quoted in %q", body)
		}
		i := 1
		closed := false
		for ; i < len(rest); i++ {
			if rest[i] == '\\' {
				if i+1 >= len(rest) {
					return nil, fmt.Errorf("dangling escape in %q", rest)
				}
				switch rest[i+1] {
				case '\\', '"', 'n':
				default:
					return nil, fmt.Errorf("bad escape \\%c in %q", rest[i+1], rest)
				}
				i++
				continue
			}
			if rest[i] == '"' {
				closed = true
				break
			}
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		pairs = append(pairs, body[:eq+1+i+1])
		body = rest[i+1:]
		if body == "" {
			return pairs, nil
		}
		if body[0] != ',' {
			return nil, fmt.Errorf("labels not comma-separated near %q", body)
		}
		body = body[1:]
		if body == "" {
			return nil, fmt.Errorf("trailing comma in label block")
		}
	}
	return pairs, nil
}
