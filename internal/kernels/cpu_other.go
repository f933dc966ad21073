//go:build !amd64 || purego

package kernels

// HasAVX2 is false without the assembly kernels: every caller takes its
// scalar path.
func HasAVX2() bool { return false }
