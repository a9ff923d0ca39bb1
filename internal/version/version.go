// Package version stamps the cmd tools with build provenance: the working
// tree's git commit (and dirty state), the Go toolchain, and the host. Every
// tool exposes it behind -version via the two-line Flag/ExitIf pair, and
// noxbench embeds the same provenance in its A/B records, so a
// number in a report can always be traced back to the code that produced it.
package version

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Git returns the working tree's HEAD commit and whether the tree has
// uncommitted changes. Both are best-effort: outside a git checkout (or
// without the git binary) the SHA is empty and dirty is false.
func Git() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	sha = strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		dirty = len(bytes.TrimSpace(st)) > 0
	}
	return sha, dirty
}

// String renders the one-line -version stamp for a tool: name, short commit
// (with a -dirty suffix when the tree has local changes), toolchain, and
// host. Fields that cannot be determined are omitted rather than guessed.
func String(tool string) string {
	parts := []string{tool}
	if sha, dirty := Git(); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		if dirty {
			sha += "-dirty"
		}
		parts = append(parts, sha)
	}
	parts = append(parts, runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH)
	if host, err := os.Hostname(); err == nil && host != "" {
		parts = append(parts, host)
	}
	return strings.Join(parts, " ")
}

// Flag registers -version on fs and returns the destination, so a tool adds
// version reporting with Flag + ExitIf around its flag.Parse call.
func Flag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print build provenance (git commit, toolchain, host) and exit")
}

// ExitIf prints the tool's version stamp and exits when requested (the
// -version flag from Flag was set); otherwise it is a no-op.
func ExitIf(requested bool, tool string) {
	if !requested {
		return
	}
	fmt.Println(String(tool))
	os.Exit(0)
}
