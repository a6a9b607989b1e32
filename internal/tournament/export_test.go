package tournament

// NewWithWorkers is New with the boundary walk's goroutine count fixed, so
// tests can run the helpers (or none) whatever GOMAXPROCS is.
func NewWithWorkers(cfg Config, workers int) (*Arena, error) {
	return newArena(cfg, workers)
}
