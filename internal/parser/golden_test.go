package parser

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchdata"
)

// parseErrorGolden holds, one case a line, the exact ParseFunc diagnostic
// for every input goldenParseInputs lists: "name<TAB>quoted error text", or
// "name<TAB>ok" when the input parses. The text is what the feedback loop
// sends the model verbatim, so it is pinned byte for byte.
const parseErrorGolden = "testdata/parse_errors.golden"

type goldenInput struct{ name, src string }

// goldenParseInputs lists the inputs whose diagnostics are pinned: the
// FuzzParse seeds and checked-in crashers, the TestParseErrors cases, and
// every byte prefix of three benchdata windows, one of them with CRLF line
// endings.
func goldenParseInputs(t *testing.T) []goldenInput {
	var in []goldenInput
	for i, src := range fuzzParseSeeds() {
		in = append(in, goldenInput{fmt.Sprintf("seed/%d", i), src})
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src := readFuzzString(t, filepath.Join(dir, e.Name()))
		in = append(in, goldenInput{"crasher/" + e.Name(), src})
	}
	for _, tc := range parseErrorCases {
		in = append(in, goldenInput{"error/" + tc.name, tc.src})
	}
	rq1, rq2 := benchdata.RQ1Cases(), benchdata.RQ2Findings()
	windows := []goldenInput{
		{"rq1-" + rq1[0].IssueID, rq1[0].Pair.Src},
		{"rq1-" + rq1[4].IssueID, rq1[4].Pair.Src},
		{"rq2-" + rq2[0].IssueID + "-crlf", strings.ReplaceAll(rq2[0].Pair.Src, "\n", "\r\n")},
	}
	for _, w := range windows {
		for n := 0; n <= len(w.src); n++ {
			in = append(in, goldenInput{fmt.Sprintf("prefix/%s/%d", w.name, n), w.src[:n]})
		}
	}
	return in
}

// readFuzzString decodes a one-string "go test fuzz v1" corpus file.
func readFuzzString(t *testing.T, path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-string fuzz corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// diagnostic renders ParseFunc's outcome on src as a golden value.
func diagnostic(src string) string {
	if _, err := ParseFunc(src); err != nil {
		return strconv.Quote(err.Error())
	}
	return "ok"
}

func TestParseErrorTextGolden(t *testing.T) {
	f, err := os.Open(parseErrorGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, text, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = text
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	inputs := goldenParseInputs(t)
	if len(inputs) != len(want) {
		t.Errorf("%d inputs, golden file has %d cases", len(inputs), len(want))
	}
	seen := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		seen[in.name] = true
		w, ok := want[in.name]
		if !ok {
			t.Errorf("%s: no golden case", in.name)
			continue
		}
		if got := diagnostic(in.src); got != w {
			t.Errorf("%s: input %q\n got %s\nwant %s", in.name, in.src, got, w)
		}
	}
	var missing []string
	for name := range want {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("golden case %s has no input", name)
	}
}
