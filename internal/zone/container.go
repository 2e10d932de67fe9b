package zone

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"strings"

	"rootless/internal/dnswire"
)

// Compress returns the zone's master file serialization compressed with
// gzip — the paper's "root zone file is roughly 1.1 MB compressed" object.
func Compress(z *Zone) ([]byte, error) {
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return nil, err
	}
	if err := Write(gz, z); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress parses a zone from its gzip-compressed master file form.
func Decompress(data []byte, origin dnswire.Name) (*Zone, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	return Parse(gz, origin)
}

// ExtractTLD scans a gzip-compressed root zone file and returns every
// record pertaining to one TLD: records owned at or under the TLD name,
// plus glue address records for the TLD's nameservers. This is the
// paper's §5.1 "Python script" experiment — a rudimentary lookaside that
// decompresses and scans the whole file per lookup.
func ExtractTLD(compressed []byte, tld dnswire.Name) ([]dnswire.RR, error) {
	full, err := Decompress(compressed, dnswire.Root)
	if err != nil {
		return nil, err
	}
	return BuildTLDIndex(full).Lookup(tld), nil
}

// TLDIndex is the "load the root zone into a database" alternative the
// paper sketches: a per-TLD index over the parsed zone allowing O(1)
// retrieval instead of a full-file scan.
type TLDIndex struct {
	byTLD map[dnswire.Name][]dnswire.RR
}

// BuildTLDIndex indexes a root zone by TLD, attaching out-of-bailiwick
// glue to each TLD's record list.
func BuildTLDIndex(z *Zone) *TLDIndex {
	idx := &TLDIndex{byTLD: make(map[dnswire.Name][]dnswire.RR)}
	needGlue := make(map[dnswire.Name][]dnswire.Name) // tld -> external hosts
	for _, rr := range z.Records() {
		if rr.Name.IsRoot() {
			continue
		}
		tld := rr.Name.TLD()
		idx.byTLD[tld] = append(idx.byTLD[tld], rr)
		if rr.Type == dnswire.TypeNS {
			host := rr.Data.(dnswire.NS).Host
			if !host.IsSubdomainOf(tld) {
				needGlue[tld] = append(needGlue[tld], host)
			}
		}
	}
	for tld, hosts := range needGlue {
		seen := make(map[dnswire.Name]bool)
		for _, h := range hosts {
			if seen[h] {
				continue
			}
			seen[h] = true
			idx.byTLD[tld] = append(idx.byTLD[tld], z.Lookup(h, dnswire.TypeA)...)
			idx.byTLD[tld] = append(idx.byTLD[tld], z.Lookup(h, dnswire.TypeAAAA)...)
		}
	}
	return idx
}

// Lookup returns the records for one TLD, or nil.
func (idx *TLDIndex) Lookup(tld dnswire.Name) []dnswire.RR {
	return idx.byTLD[tld]
}

// TLDs returns the number of indexed TLDs.
func (idx *TLDIndex) TLDs() int { return len(idx.byTLD) }

// ReadNames streams just the owner names from a master-file reader without
// building a zone, used by analysis tools that only need name census data.
func ReadNames(r io.Reader) ([]dnswire.Name, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var names []dnswire.Name
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == ';' || line[0] == '$' ||
			line[0] == ' ' || line[0] == '\t' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		n, err := dnswire.ParseName(fields[0])
		if err != nil {
			continue
		}
		names = append(names, n)
	}
	return names, sc.Err()
}
