package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host is printed with every result so numbers from different machines are
// never compared unknowingly.
type host struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// DefaultProcs is GOMAXPROCS before a workload pinned it.
	DefaultProcs int             `json:"default_gomaxprocs"`
	GOAMD64      string          `json:"goamd64"`
	GoVersion    string          `json:"go_version"`
	CPUFlags     map[string]bool `json:"cpu_flags"`
}

func hostFacts(defaultProcs int) host {
	h := host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		DefaultProcs: defaultProcs,
		GoVersion:    runtime.Version(),
		CPUFlags:     map[string]bool{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	want := []string{"avx2", "fma", "avx512f"}
	// Without /proc/cpuinfo (non-Linux hosts) the flags stay unknown.
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "flags") {
				continue
			}
			have := map[string]bool{}
			for _, f := range strings.Fields(line) {
				have[f] = true
			}
			for _, f := range want {
				h.CPUFlags[f] = have[f]
			}
			break
		}
	}
	return h
}
