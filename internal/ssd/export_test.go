package ssd

// Dead reports whether the device lost power and awaits Remount.
func (s *SSD) Dead() bool { return s.dead }
