package main

import (
	"os/exec"
	"runtime"
	"strings"
)

// host is stamped into every result, so a number is never read without the
// machine it was taken on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	GitCommit  string `json:"git_commit"`
	// Note states plainly what the host cannot show.
	Note string `json:"note,omitempty"`
}

// pinProcs pins GOMAXPROCS to 1 on every host. The reference host is a
// two-vCPU guest on which waking the other vCPU costs more than the request
// it is woken for, and by an amount that follows the host's other guests: a
// loopback echo on two connections over two processors was no faster than on
// one connection over one, and three times as unsteady (README, "Host
// noise"). On one processor the two workers and the servers take turns where
// they block, the request path's own cost is what is timed, and what the
// benchmark cannot show, speed-up from parallel cores, is stated with every
// result.
func pinProcs() host {
	runtime.GOMAXPROCS(1)
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: 1,
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		GitCommit:  "unknown",
		Note:       "GOMAXPROCS is 1: the two workers and the servers time-share one processor, so no number here shows parallel speed or lock contention between cores",
	}
	if h.NProc == 1 {
		h.Note += "; this host has one core anyway"
	}
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}
