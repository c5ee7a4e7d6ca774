package fixture

import "os"

// Metadata-only os calls create, rename, remove, list or read nothing, so
// they stay legal outside internal/pagefile.
func manifestExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func workDir() (string, error) { return os.Getwd() }
