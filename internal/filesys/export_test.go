package filesys

// Files returns the number of live files.
func (fs *FS) Files() int { return fs.live }
