// Bytebrain is the command-line interface to the parser: train a model
// from a log file, match logs against a saved model, list templates at a
// chosen precision, and query a running log service over HTTP.
//
//	bytebrain train -in app.log -model app.model
//	bytebrain match -in new.log -model app.model -threshold 0.7
//	bytebrain templates -model app.model -threshold 0.9
//	bytebrain query -addr http://localhost:8080 -topic app -since 15m
//	bytebrain query -addr http://localhost:8080 -topic app \
//	    -from 2026-07-26T12:00:00Z -to 2026-07-26T12:15:00Z
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"bytebrain"
	"bytebrain/internal/netingest"
)

// tcpAddr strips an http(s):// scheme so -addr works unchanged across
// -proto values.
func tcpAddr(addr string) string {
	addr = strings.TrimPrefix(addr, "http://")
	addr = strings.TrimPrefix(addr, "https://")
	return strings.TrimSuffix(addr, "/")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bytebrain: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "match":
		cmdMatch(os.Args[2:])
	case "templates":
		cmdTemplates(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "ingest":
		cmdIngest(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bytebrain train     -in <log file> -model <out model> [-seed N] [-parallel N]
  bytebrain match     -in <log file> -model <model> [-threshold T]
  bytebrain templates -model <model> [-threshold T]
  bytebrain ingest    -addr <service URL | host:port> -topic <name>
                      [-in <log file>] [-batch N]
                      [-proto http|tcp|tcp-raw] [-window N]
  bytebrain query     -addr <service URL> -topic <name> [-threshold T]
                      [-from RFC3339] [-to RFC3339] [-since 15m] [-merged]`)
	os.Exit(2)
}

func readLines(path string) []string {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var lines []string
	for sc.Scan() {
		if l := sc.Text(); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return lines
}

func loadModel(path string) *bytebrain.Model {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	m := bytebrain.NewModel()
	if err := m.UnmarshalBinary(data); err != nil {
		log.Fatal(err)
	}
	return m
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "input log file")
	modelPath := fs.String("model", "", "output model file")
	seed := fs.Int64("seed", 1, "clustering seed")
	parallel := fs.Int("parallel", 4, "worker count")
	merge := fs.String("merge", "", "existing model to merge into")
	_ = fs.Parse(args)
	if *in == "" || *modelPath == "" {
		usage()
	}
	lines := readLines(*in)
	parser := bytebrain.New(bytebrain.Options{Seed: *seed, Parallelism: *parallel})
	var res *bytebrain.TrainResult
	var err error
	if *merge != "" {
		res, err = parser.TrainMerge(loadModel(*merge), lines)
	} else {
		res, err = parser.Train(lines)
	}
	if err != nil {
		log.Fatal(err)
	}
	data, err := res.Model.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*modelPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d nodes from %d logs → %s (%d bytes)\n",
		res.Model.Len(), len(lines), *modelPath, len(data))
}

func cmdMatch(args []string) {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	in := fs.String("in", "", "input log file")
	modelPath := fs.String("model", "", "model file")
	threshold := fs.Float64("threshold", 0.7, "saturation threshold")
	_ = fs.Parse(args)
	if *in == "" || *modelPath == "" {
		usage()
	}
	model := loadModel(*modelPath)
	parser := bytebrain.New(bytebrain.Options{})
	matcher, err := parser.NewMatcher(model)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, line := range readLines(*in) {
		m := matcher.Match(line)
		n, err := matcher.TemplateAt(m.NodeID, *threshold)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\n", n.ID, bytebrain.DisplayTemplate(n.Template), line)
	}
}

// cmdIngest ships a log file (or stdin) into a running log service
// (cmd/logsvcd). The default -proto=http posts batches of lines so each
// request rides the service's group-committed ingestion path end to
// end and a 200 means the batch is committed. -proto=tcp speaks the
// streaming framed protocol against the service's -ingest-addr listener
// (persistent connection, pipelined frames, BUSY-aware resends), and
// -proto=tcp-raw streams newline-delimited lines with one final ack.
func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "service base URL (-proto=http) or host:port of the -ingest-addr listener (-proto=tcp, tcp-raw)")
	topic := fs.String("topic", "", "topic to ingest into")
	in := fs.String("in", "", "input log file (default stdin)")
	batch := fs.Int("batch", 4096, "lines per HTTP request / framed batch")
	proto := fs.String("proto", "http", "wire protocol: http, tcp (framed), or tcp-raw (newline stream)")
	window := fs.Int("window", 8, "unacked frames in flight (-proto=tcp)")
	_ = fs.Parse(args)
	if *topic == "" || *batch <= 0 {
		usage()
	}
	var lines []string
	if *in == "" {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
		for sc.Scan() {
			if l := sc.Text(); l != "" {
				lines = append(lines, l)
			}
		}
		if err := sc.Err(); err != nil {
			log.Fatal(err)
		}
	} else {
		lines = readLines(*in)
	}
	switch *proto {
	case "http":
		// fall through to the HTTP path below
	case "tcp":
		c, err := netingest.Dial(tcpAddr(*addr), netingest.ClientOptions{Window: *window})
		if err != nil {
			log.Fatal(err)
		}
		for start := 0; start < len(lines); start += *batch {
			end := min(start+*batch, len(lines))
			if err := c.Send(*topic, lines[start:end]); err != nil {
				log.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %d lines into %s (framed tcp)\n", len(lines), *topic)
		return
	case "tcp-raw":
		c, err := netingest.DialRaw(tcpAddr(*addr), *topic)
		if err != nil {
			log.Fatal(err)
		}
		for _, l := range lines {
			if err := c.WriteLine([]byte(l)); err != nil {
				log.Fatal(err)
			}
		}
		n, err := c.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %d lines into %s (raw tcp)\n", n, *topic)
		return
	default:
		log.Fatalf("-proto=%s: want http, tcp, or tcp-raw", *proto)
	}
	u := strings.TrimSuffix(*addr, "/") + "/topics/" + url.PathEscape(*topic) + "/logs"
	sent := 0
	for len(lines) > 0 {
		n := *batch
		if n > len(lines) {
			n = len(lines)
		}
		body := strings.NewReader(strings.Join(lines[:n], "\n"))
		lines = lines[n:]
		resp, err := http.Post(u, "text/plain", body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			log.Fatalf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sent += n
	}
	fmt.Printf("ingested %d lines into %s\n", sent, *topic)
}

// cmdQuery runs a grouped template query against a running log service
// (cmd/logsvcd) over its HTTP API, with optional time-range bounds that
// the service pushes down to sealed-segment metadata.
func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "log service base URL")
	topic := fs.String("topic", "", "topic to query")
	threshold := fs.Float64("threshold", 0, "saturation threshold in (0,1]; 0 uses the service default")
	from := fs.String("from", "", "inclusive lower time bound, RFC 3339 (e.g. 2026-07-26T12:00:00Z)")
	to := fs.String("to", "", "inclusive upper time bound, RFC 3339")
	since := fs.String("since", "", "duration shorthand for -from=now-since (e.g. 15m); excludes -from/-to")
	merged := fs.Bool("merged", false, "merge display-identical templates into one row")
	_ = fs.Parse(args)
	if *topic == "" {
		usage()
	}
	// Validate client-side for a friendly error; the server re-validates.
	q := url.Values{}
	if *threshold != 0 {
		q.Set("threshold", strconv.FormatFloat(*threshold, 'g', -1, 64))
	}
	if *since != "" {
		if *from != "" || *to != "" {
			log.Fatal("-since excludes -from/-to")
		}
		if _, err := time.ParseDuration(*since); err != nil {
			log.Fatalf("-since: %v", err)
		}
		q.Set("since", *since)
	}
	for _, bound := range []struct{ flag, val string }{{"from", *from}, {"to", *to}} {
		if bound.val == "" {
			continue
		}
		if _, err := time.Parse(time.RFC3339, bound.val); err != nil {
			log.Fatalf("-%s: %v", bound.flag, err)
		}
		q.Set(bound.flag, bound.val)
	}
	if *merged {
		q.Set("merged", "1")
	}
	u := strings.TrimSuffix(*addr, "/") + "/topics/" + url.PathEscape(*topic) + "/query"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		log.Fatalf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rows []bytebrain.TemplateRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%8d  sat=%.2f  count=%-8d %s\n", r.TemplateID, r.Saturation, r.Count, r.Template)
	}
}

func cmdTemplates(args []string) {
	fs := flag.NewFlagSet("templates", flag.ExitOnError)
	modelPath := fs.String("model", "", "model file")
	threshold := fs.Float64("threshold", 0.7, "saturation threshold")
	_ = fs.Parse(args)
	if *modelPath == "" {
		usage()
	}
	model := loadModel(*modelPath)
	for _, n := range model.TemplatesAtThreshold(*threshold) {
		fmt.Printf("%8d  sat=%.2f  weight=%-8d %s\n",
			n.ID, n.Saturation, n.Weight, bytebrain.DisplayTemplate(n.Template))
	}
}
