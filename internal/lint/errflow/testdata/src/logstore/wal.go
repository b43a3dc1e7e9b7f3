// Fixture for the error-flow analyzer's discard check. The quarantine
// function reintroduces the PR 3 bug verbatim in shape: recovery moved
// a corrupt segment aside with an unchecked os.Rename, so a failed
// quarantine silently reported success and the bad file shadowed the
// WAL again on the next open.
package logstore

import "os"

type walWriter struct {
	f *os.File
}

func (w *walWriter) append(b []byte) error { return nil }

func (w *walWriter) flush() error { return nil }

func (w *walWriter) close() error { return w.f.Close() }

type walSink interface {
	append(b []byte) error
	close() error
}

func quarantine(path string) {
	os.Rename(path, path+".bad") // want "os.Rename"
	os.Remove(path + ".tmp")     // want "os.Remove"
}

func writePath(w *walWriter, sink walSink, data []byte) error {
	w.append(data)    // want "w.append"
	_ = w.flush()     // want "blanked with _"
	sink.append(data) // want "sink.append"
	if err := w.f.Sync(); err != nil {
		w.f.Close()    // exempt: cleanup while unwinding an error
		os.Remove("x") // exempt: cleanup while unwinding an error
		return err
	}
	return w.close()
}

func readPath(f *os.File) error {
	defer f.Close() // exempt: read-path defer
	return nil
}

func deferredSync(f *os.File) {
	defer f.Sync() // want "deferred f.Sync"
}

func checked(path string) error {
	if err := os.Rename(path, path+".bad"); err != nil {
		return err
	}
	return nil
}

func suppressed(path string) {
	//bbvet:ignore errflow fixture exercises a counted suppression
	os.Remove(path)
}
