package vars

import (
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bytebrain/internal/datagen"
)

func TestDefaultReplacements(t *testing.T) {
	r := Default()
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"iso timestamp", "at 2025-04-12T08:31:02Z start", "at <*> start"},
		{"iso with millis", "ts=2025-04-12 08:31:02.123 ok", "ts=<*> ok"},
		{"slash date", "17/06/09 20:10:40 INFO", "<*> INFO"},
		{"bare clock", "up since 08:31:02 today", "up since <*> today"},
		{"ipv4", "from 10.250.19.102 accepted", "from <*> accepted"},
		{"ipv4 port", "dest: /10.250.19.102:50010 ok", "dest: /<*> ok"},
		{"uuid", "req 550e8400-e29b-41d4-a716-446655440000 done", "req <*> done"},
		{"md5", "digest d41d8cd98f00b204e9800998ecf8427e ok", "digest <*> ok"},
		{"0x hex", "flags 0xdeadbeef set", "flags <*> set"},
		{"mac", "dev 00:1a:2b:3c:4d:5e up", "dev <*> up"},
		{"plain text untouched", "nothing variable here", "nothing variable here"},
		{"short hex untouched", "code ab12 kept", "code ab12 kept"},
		{"version number untouched", "v1.2 kept", "v1.2 kept"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Replace(tt.in); got != tt.want {
				t.Errorf("Replace(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNoneReplacerIsIdentity(t *testing.T) {
	r := None()
	in := "at 2025-04-12T08:31:02Z from 10.0.0.1"
	if got := r.Replace(in); got != in {
		t.Errorf("None().Replace changed input: %q", got)
	}
}

func TestNilReplacerIsIdentity(t *testing.T) {
	var r *Replacer
	if got := r.Replace("x 10.0.0.1"); got != "x 10.0.0.1" {
		t.Errorf("nil Replacer changed input: %q", got)
	}
}

func TestAddCustomRule(t *testing.T) {
	r := None().Add("blk", `blk_-?\d+`)
	in := "Receiving block blk_-1608999687919862906 src"
	want := "Receiving block <*> src"
	if got := r.Replace(in); got != want {
		t.Errorf("Replace = %q, want %q", got, want)
	}
}

// Custom rules run on the built-ins' output, including on lines the
// scanner dismisses without a single candidate.
func TestCustomRulesRunAfterBuiltins(t *testing.T) {
	r := Default().Add("word", `\bsecret\b`).Add("glued", `<\*>:\d+`)
	for in, want := range map[string]string{
		"the secret word":         "the <*> word",
		"secret from 10.0.0.1 ok": "<*> from <*> ok",
		"peer 0xbeef:77 gone":     "peer <*> gone",
	} {
		if got := r.Replace(in); got != want {
			t.Errorf("Replace(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAddPanicsOnBadPattern(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"bad"`) {
			t.Errorf("Add panicked with %q, want a message naming the rule", msg)
		}
	}()
	None().Add("bad", "(unclosed")
}

func TestRuleOrderUUIDBeforeHex(t *testing.T) {
	r := Default()
	got := r.Replace("id 550e8400-e29b-41d4-a716-446655440000 end")
	if strings.Count(got, Wildcard) != 1 {
		t.Errorf("UUID replaced in pieces: %q", got)
	}
}

func TestIncreasesDuplication(t *testing.T) {
	// The motivating property from Fig. 4: after replacement, lines that
	// differ only in variables collapse to identical strings.
	r := Default()
	a := r.Replace("conn from 10.0.0.1:5330 at 2025-01-01 10:00:00")
	b := r.Replace("conn from 192.168.7.9:1024 at 2025-03-05 23:59:59")
	if a != b {
		t.Errorf("variable-only differences survived: %q vs %q", a, b)
	}
}

// oracleRules are the built-in rules as they were specified and, until the
// byte scanners replaced them, executed: one regular expression each,
// applied in this order, each to the output of the one before. They exist
// only as the reference the scanners are checked against. internal/core's
// model-equality test carries a copy to train through the regex path.
var oracleRules = []*regexp.Regexp{
	regexp.MustCompile(`\b\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?\b`),
	regexp.MustCompile(`\b\d{2,4}[/.]\d{2}[/.]\d{2,4}[ T]\d{2}:\d{2}:\d{2}\b`),
	regexp.MustCompile(`\b\d{2}:\d{2}:\d{2}(?:[.,]\d+)?\b`),
	regexp.MustCompile(`\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b`),
	regexp.MustCompile(`\b(?:[0-9a-fA-F]{1,4}:){3,7}[0-9a-fA-F]{1,4}\b`),
	regexp.MustCompile(`\b(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?\b`),
	regexp.MustCompile(`\b(?:0x[0-9a-fA-F]+|[0-9a-fA-F]{32,64})\b`),
	regexp.MustCompile(`\b(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b`),
}

func oracle(line, placeholder string) string {
	for _, re := range oracleRules {
		line = re.ReplaceAllString(line, placeholder)
	}
	return line
}

// checkParity reports whether the scanner and the oracle agree on line for
// both placeholders, logging the first difference.
func checkParity(t testing.TB, line string) bool {
	t.Helper()
	// A line no regex matched comes back as is, whatever the placeholder.
	wantWild, wantSafe := oracle(line, Wildcard), line
	if wantWild != line {
		wantSafe = oracle(line, Sentinel)
	}
	for _, c := range []struct{ placeholder, want string }{{Wildcard, wantWild}, {Sentinel, wantSafe}} {
		if got := scanBuiltins(line, c.placeholder); got != c.want {
			t.Errorf("placeholder %q, line %q:\n scanner %q\n regex   %q", c.placeholder, line, got, c.want)
			return false
		}
	}
	return true
}

// trapLines are inputs on which a scanner that is merely plausible goes
// wrong: backtracking that drops an optional tail, bounded repetition
// counts, rule priority over overlapping shapes, and bytes that look
// special to the scanner but not to the regexes.
var trapLines = []string{
	"",
	"nothing variable here",
	"pure text, deadbeef cafe",

	// iso: fraction and zone tails, kept or dropped by the trailing \b.
	"2024-01-02T03:04:05",
	"2024-01-02 03:04:05.678",
	"2024-01-02T03:04:05,678Z",
	"2024-01-02T03:04:05Z",
	"2024-01-02T03:04:05+01:00",
	"2024-01-02T03:04:05-0100",
	"2024-01-02T03:04:05.678+01:00 up",
	"2024-01-02T03:04:05.678abc",
	"2024-01-02T03:04:05.abc",
	"2024-01-02T03:04:05.",
	"2024-01-02T03:04:05.678Zx",
	"2024-01-02T03:04:05Zx",
	"2024-01-02T03:04:05+01:0x",
	"2024-01-02T03:04:05+01:2345",
	"2024-01-02T03:04:05+012345",
	"2024-01-02T03:04:05+0100Z",
	"2024-01-02T03:04:05+01",
	"2024-01-02T03:04:05.678+01",
	"2024-01-02T03:04:05.6+01:00:30",
	"2024-01-02T03:04:05x",
	"2024-01-02T03:04:056",
	"2024-01-02_03:04:05",
	"2024-01-02T03:04",
	"x2024-01-02T03:04:05",
	"12024-01-02T03:04:05",
	"2024-01-02T03:04:05 2024-01-02T03:04:05",
	"2024-01-02T03:04:05-2024-01-02T03:04:05",
	"2005-06-03-15.42.50.363779",

	// slash-date-time: \d{2,4} counts, mixed separators.
	"17/06/09 20:10:40 INFO",
	"2017/06/09T20:10:40",
	"2017.06/2009 20:10:40",
	"1/06/09 20:10:40",
	"20171/06/09 20:10:40",
	"17/06/20091 20:10:40",
	"17/060/09 20:10:40",
	"17/06/09 20:10:40.5",
	"17/06/09 20:10:405",
	"17/06/09  20:10:40",
	"2005.06.03 R02-M1-N0-C:J12-U11",

	// clock-time, and an all-digit MAC becoming two of them.
	"12:34:56",
	"12:34:56.789",
	"12:34:56,789 ",
	"12:34:56.789abc",
	"12:34:56.",
	"12:34:56x",
	"123:34:56",
	"1:34:56",
	"12:34:567",
	"12:34:56:78",
	"00:11:22:33:44:55",
	"00:11:22:33:44:5a",
	"aa:bb:cc:11:22:33",
	"11:22:33:aa:bb:cc:dd",

	// uuid.
	"550e8400-e29b-41d4-a716-446655440000",
	"550e8400-e29b-41d4-a716-4466554400000",
	"550e8400-e29b-41d4-a716-44665544000",
	"550e8400-e29b-41d4-a716-446655440000-x",
	"g550e8400-e29b-41d4-a716-446655440000",
	"550e8400-e29b-41d4-a716_446655440000",
	"5550e8400-e29b-41d4-a716-446655440000",
	"2024e840-0102-0304-0506-446655440000",

	// ipv6: the {3,7} group count and the group given back.
	"1:2:3",
	"1:2:3:4",
	"1:2:3:4:",
	"1:2:3:",
	"1:2:3:4:5:6:7:8",
	"1:2:3:4:5:6:7:8:9",
	"1:2:3:4:5:6:7:8:9:a:b:c:d",
	"fe80:0:0:0:202:b3ff:fe1e:8329",
	"1:2:3:4g",
	"1:2:3:4:5g",
	"1:2:3:12345",
	"1:2:3:4:12345",
	"12345:2:3:4",
	"a:b:c::d:e:f:0",
	"::1:2:3:4",
	"C:J12-U11",

	// ipv4-port.
	"10.250.19.102",
	"/10.250.19.102:50010",
	"10.0.0.1:123456",
	"10.0.0.1:80a",
	"10.0.0.1:",
	"10.0.0.1:65535:1",
	"10.0.0.1a",
	"10.0.0.1234",
	"10.0.0",
	"1.2.3.4.5",
	"1.2.3.4.5.6.7.8",
	"1234.2.3.4",
	"1.2.3.4:5.6.7.8",
	"v1.2.3.4",
	"1.2.3.4_5",

	// long-hex: 0x forms and the 32..64 window.
	"0x",
	"0x ",
	"0xg",
	"0x1",
	"0x1fg",
	"0xdeadbeef",
	"0XDEADBEEF",
	"00x12",
	"0x0x12",
	"x0x12",
	"0x12:34:56",
	strings.Repeat("a", 31),
	strings.Repeat("a", 32),
	strings.Repeat("A", 64),
	strings.Repeat("a", 65),
	strings.Repeat("0", 80),
	strings.Repeat("a", 32) + "g",
	strings.Repeat("a", 32) + "-" + strings.Repeat("b", 32),
	"d41d8cd98f00b204e9800998ecf8427e",

	// mac-address, always shadowed by ipv6 or clock-time.
	"00:1a:2b:3c:4d:5e",
	"00:1a:2b:3c:4d:5e:6f",
	"00:1a:2b:3c:4d:5",
	"00:1a:2b:3c:4d:5eg",

	// Adjacent and nested shapes; priority across rules.
	"12:34:56 12:34:56",
	"12:34:56,12:34:56",
	"12:34:56-12:34:56",
	"10.0.0.1 10.0.0.2",
	"10.0.0.1,10.0.0.2",
	"10.0.0.1:80:12:34:56",
	"12:34:56.10.0.0.1",
	"1.2.3.4:12:34:56",
	"2024-01-02 03:04:05 10.0.0.1:80 0xff 12:00:00",
	"081109 20:35:18 INFO dfs.DataNode: Receiving block src: /10.250.19.102:54106 dest: /10.250.19.102:50010",

	// Bytes the scanner must treat as the regexes do.
	"\xff10.0.0.1\xfe",
	"é10.0.0.1é 12:34:56é",
	"\xc310.0.0.1",
	"10.0.0.\xff1",
	"a\x0110.0.0.1\x01b",
	"\x0112:34:56\x01",
	"<*>10.0.0.1<*>",
	"<*>:12:34:56",
	"10.0.0.1<*>10.0.0.2",
	"_10.0.0.1",
	"10.0.0.1_",
	"12:34:56\n12:34:56",
	"\t0xff\t",
}

func TestScannerParityTraps(t *testing.T) {
	for _, line := range trapLines {
		checkParity(t, line)
	}
	// Every trap again inside a line, so no case depends on the edges.
	for _, line := range trapLines {
		checkParity(t, "at "+line+" end")
		checkParity(t, "k="+line+";"+line)
	}
}

// Lines with more candidates and matches than scanBuiltins' stack buffers
// hold take the append-growth path.
func TestScannerParityManyMatches(t *testing.T) {
	checkParity(t, strings.Repeat("10.0.0.1:80 12:34:56 0xff ", 40))
	checkParity(t, strings.Repeat("1.2.3 12:34 0x ", 40)+"10.0.0.1")
}

// parityGen builds lines over the bytes the rules are made of, mixing
// well-formed variables, mutated ones and loose runs, so that near-misses
// — where backtracking and counts decide — are common.
type parityGen struct {
	r   *rand.Rand
	buf []byte
}

const parityAlphabet = "0123456789abcdefABCDEFxZT:.,-+/ "

var parityShapes = []string{
	"2024-01-02T03:04:05", "2024-01-02 03:04:05.678", "2024-01-02T03:04:05Z",
	"2024-01-02T03:04:05.6+01:00", "2024-01-02T03:04:05-0100",
	"17/06/09 20:10:40", "2017.06.09T20:10:40", "12:34:56", "12:34:56,789",
	"550e8400-e29b-41d4-a716-446655440000", "1:2:3:4", "fe80:0:0:0:202:b3ff:fe1e:8329",
	"1:2:3:4:5:6:7:8:9", "10.0.0.1", "10.250.19.102:50010", "0xdeadBEEF", "0x",
	"d41d8cd98f00b204e9800998ecf8427e", "00:1a:2b:3c:4d:5e", "00:11:22:33:44:55",
}

func (g *parityGen) run(class string, n int) {
	for i := 0; i < n; i++ {
		g.buf = append(g.buf, class[g.r.Intn(len(class))])
	}
}

func (g *parityGen) line() string {
	g.buf = g.buf[:0]
	for pieces := 1 + g.r.Intn(4); pieces > 0; pieces-- {
		switch g.r.Intn(8) {
		case 0, 1:
			g.run(parityAlphabet, 1+g.r.Intn(12))
		case 2:
			g.run("0123456789", 1+g.r.Intn(5))
		case 3:
			g.run("0123456789abcdefABCDEF", []int{1, 2, 4, 5, 8, 12, 31, 32, 33, 64, 65}[g.r.Intn(11)])
		case 4:
			g.run(":.,-+/ TZx", 1+g.r.Intn(2))
		default:
			s := len(g.buf)
			g.buf = append(g.buf, parityShapes[g.r.Intn(len(parityShapes))]...)
			// Mutate zero to two bytes of the shape: replace, delete
			// or insert.
			for m := g.r.Intn(3); m > 0 && len(g.buf) > s; m-- {
				at := s + g.r.Intn(len(g.buf)-s)
				c := parityAlphabet[g.r.Intn(len(parityAlphabet))]
				switch g.r.Intn(3) {
				case 0:
					g.buf[at] = c
				case 1:
					g.buf = append(g.buf[:at], g.buf[at+1:]...)
				default:
					g.buf = append(g.buf[:at+1], g.buf[at:]...)
					g.buf[at] = c
				}
			}
		}
	}
	return string(g.buf)
}

// parityLinesPerShard × 8 shards is how many lines
// TestScannerParityGenerated checks; race_test.go lowers it.
var parityLinesPerShard = 25_000

func TestScannerParityGenerated(t *testing.T) {
	// Fixed shards, one seed each, so the lines do not depend on how many
	// run at once.
	const shards = 8
	perShard := parityLinesPerShard
	var changed atomic.Int64
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := parityGen{r: rand.New(rand.NewSource(seed))}
			for i := 0; i < perShard; i++ {
				line := g.line()
				if !checkParity(t, line) {
					return
				}
				if scanBuiltins(line, Sentinel) != line {
					changed.Add(1)
				}
			}
		}(int64(shard) + 1)
	}
	wg.Wait()
	// The generator is only a test if matches and misses are both common.
	if n, lines := int(changed.Load()), shards*perShard; n < lines/4 || n > lines*3/4 {
		t.Errorf("%d of %d generated lines had a match; generator has drifted to one side", n, lines)
	}
}

func TestScannerParityDatagenCorpora(t *testing.T) {
	for _, name := range datagen.Names() {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range ds.Lines {
			if !checkParity(t, line) {
				t.Fatalf("dataset %s", name)
			}
		}
	}
}

func FuzzScannerParity(f *testing.F) {
	for _, line := range trapLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		checkParity(t, line)
	})
}

// benchLines is a mix of what the scanner meets: an HDFS line and a BGL
// line with variables, a line without digits, and a line with digits but no
// variable.
var benchLines = []string{
	"081109 20:35:18 INFO dfs.DataNode$DataXceiver: Receiving block blk_-1608999687919862906 src: /10.250.19.102:54106 dest: /10.250.19.102:50010",
	"- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected at 0x0b85eee0",
	"jk2_init() Can't find child in scoreboard, workerEnv in error state",
	"081109 203615 148 INFO dfs.DataNode$PacketResponder: PacketResponder 1 for block blk_38865049064139660 terminating",
}

func BenchmarkDefaultReplace(b *testing.B) {
	r := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, line := range benchLines {
			r.ReplaceTokenSafe(line)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(benchLines)), "ns/line")
}
