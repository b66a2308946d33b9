package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host says where and on what a report was measured.
type Host struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	Commit      string `json:"commit"`
	Environment string `json:"environment"`
}

func hostBlock() Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Environment: "rt-*: 3 in-process nodes on 127.0.0.1 loopback UDP, no real link, no injected delay or loss, " +
			"default protocol configs, tracing off unless traced; sim-*: netsim defaults (10 Mbps shared bus), virtual time; " +
			"64 MiB heap ballast",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}
