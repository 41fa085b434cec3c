package serve

// Tables returns the current generation (nil before the first Publish).
func (s *Server) Tables() *Tables { return s.tables.Load() }
