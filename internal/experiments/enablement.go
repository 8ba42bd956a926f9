package experiments

import (
	"fmt"
	"io"
	"strings"

	"sciera/internal/stats"
)

// appDiff is the SCION-enabling diff of one case-study application:
// the paper's Appendix E-G changes written against this library's API.
// The examples under examples/ are their runnable counterparts.
type appDiff struct {
	App     string
	Lang    string
	Summary string
	Diff    string
}

// enablementDiffs returns the three case studies of Section 5.2.
func enablementDiffs() []appDiff {
	return []appDiff{
		{
			App:     "bat-style web client (examples/webclient)",
			Lang:    "Go",
			Summary: "swap http.Transport for shttp, add path-policy flags",
			Diff: `+	"sciera/internal/pan"
+	"sciera/internal/shttp"
+	flag.BoolVar(&interactive, "interactive", false, "Prompt user for interactive path selection")
+	flag.StringVar(&sequence, "sequence", "", "Sequence of space separated hop predicates")
+	flag.StringVar(&preference, "preference", "", "Preference sorting order for paths: "+strings.Join(pan.AvailablePreferencePolicies, "|"))
+	policy, err := policyFromFlags(sequence, preference, interactive)
+	if err != nil {
+		log.Fatal(err)
+	}
+	client.Transport = shttp.NewTransport(host, policy)
-	u, err := url.Parse(rawURL)
+	u, err := url.Parse(shttp.MangleSCIONAddrURL(rawURL))`,
		},
		{
			App:     "reverse proxy plugin (examples/reverseproxy)",
			Lang:    "Go",
			Summary: "serve an existing http.Handler over SCION, tag SCION requests",
			Diff: `+	"sciera/internal/shttp"
+	srv, err := shttp.Serve(host, 443, handler)
+	if err != nil {
+		log.Fatal(err)
+	}
+	// handler middleware:
+	if _, err := addr.ParseUDPAddr(r.RemoteAddr); err == nil {
+		r.Header.Add("X-SCION", "on")
+		r.Header.Add("X-SCION-Remote-Addr", r.RemoteAddr)
+	} else {
+		r.Header.Add("X-SCION", "off")
+	}`,
		},
		{
			App:     "netcat (examples/netcat)",
			Lang:    "Go",
			Summary: "drop-in socket replacement: ListenUDP/DialUDP instead of net",
			Diff: `-	conn, err := net.ListenUDP("udp", &net.UDPAddr{Port: port})
+	conn, err := host.ListenUDP(port)
-	conn, err := net.DialUDP("udp", nil, raddr)
+	conn, err := host.DialUDP(raddr)`,
		},
	}
}

// countAdded counts '+' lines of a diff (the paper's "fewer than 20
// lines of code" metric counts added/changed lines).
func countAdded(diff string) int {
	n := 0
	for _, line := range strings.Split(diff, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "+") {
			n++
		}
	}
	return n
}

// EnablementTable prints the Section 5.2 application-enablement case
// study with the changed-line counts.
func EnablementTable(w io.Writer) {
	section(w, "Section 5.2: Application enablement effort")
	t := stats.Table{Header: []string{"Application", "Language", "SCION lines added", "Paper"}}
	for _, d := range enablementDiffs() {
		t.AddRow(d.App, d.Lang, fmt.Sprintf("%d", countAdded(d.Diff)), "< 20 (bat)")
	}
	fmt.Fprint(w, t.Render())
	fmt.Fprintln(w, "\ndiffs:")
	for _, d := range enablementDiffs() {
		fmt.Fprintf(w, "\n--- %s (%s) ---\n%s\n", d.App, d.Summary, d.Diff)
	}
}
