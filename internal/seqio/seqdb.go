package seqio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/lbl-repro/meraligner/internal/dna"
)

// SeqDB-like binary container.
//
// Layout:
//
//	header (32 bytes):
//	  magic "MSDB" | version u32 | numRecords u64 | numChunks u64 | indexOff u64
//	chunk payloads, back to back
//	chunk index at indexOff: numChunks x { off u64, size u64, first u64, count u64 }
//
// Each chunk payload is a sequence of records:
//
//	nameLen uvarint | name | seqLen uvarint | packed 2-bit bases | qualFlag u8 | [qual]
//
// The chunk index is what makes parallel I/O trivial: thread i reads chunks
// i, i+P, i+2P... with ReadAt and decodes independently (§V-A's Parallel
// HDF5 reading, minus the HDF5 container).

const (
	seqdbMagic   = "MSDB"
	seqdbVersion = 1
	headerSize   = 32
	indexEntry   = 32
)

// ChunkInfo describes one chunk of a SeqDB file.
type ChunkInfo struct {
	Off   uint64 // byte offset of the chunk payload
	Size  uint64 // payload size in bytes
	First uint64 // index of the first record in the chunk
	Count uint64 // records in the chunk
}

// WriteSeqDB streams seqs into w (an io.WriteSeeker, typically *os.File)
// with recordsPerChunk records per chunk. It returns the chunk index.
func WriteSeqDB(w io.WriteSeeker, seqs []Seq, recordsPerChunk int) ([]ChunkInfo, error) {
	if recordsPerChunk <= 0 {
		recordsPerChunk = 4096
	}
	// Placeholder header.
	if _, err := w.Write(make([]byte, headerSize)); err != nil {
		return nil, err
	}
	var chunks []ChunkInfo
	off := uint64(headerSize)
	var buf bytes.Buffer
	for first := 0; first < len(seqs); first += recordsPerChunk {
		count := min(recordsPerChunk, len(seqs)-first)
		buf.Reset()
		for _, s := range seqs[first : first+count] {
			encodeRecord(&buf, s)
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return nil, err
		}
		chunks = append(chunks, ChunkInfo{Off: off, Size: uint64(buf.Len()), First: uint64(first), Count: uint64(count)})
		off += uint64(buf.Len())
	}
	// Index.
	indexOff := off
	var idx bytes.Buffer
	for _, c := range chunks {
		var e [indexEntry]byte
		binary.LittleEndian.PutUint64(e[0:], c.Off)
		binary.LittleEndian.PutUint64(e[8:], c.Size)
		binary.LittleEndian.PutUint64(e[16:], c.First)
		binary.LittleEndian.PutUint64(e[24:], c.Count)
		idx.Write(e[:])
	}
	if _, err := w.Write(idx.Bytes()); err != nil {
		return nil, err
	}
	// Patch header.
	var hdr [headerSize]byte
	copy(hdr[0:4], seqdbMagic)
	binary.LittleEndian.PutUint32(hdr[4:], seqdbVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(seqs)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(chunks)))
	binary.LittleEndian.PutUint64(hdr[24:], indexOff)
	if _, err := w.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := w.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return chunks, nil
}

func encodeRecord(buf *bytes.Buffer, s Seq) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(s.Name)))
	buf.Write(tmp[:n])
	buf.WriteString(s.Name)
	n = binary.PutUvarint(tmp[:], uint64(s.Seq.Len()))
	buf.Write(tmp[:n])
	buf.Write(s.Seq.Bytes())
	if len(s.Qual) > 0 {
		buf.WriteByte(1)
		buf.Write(s.Qual)
	} else {
		buf.WriteByte(0)
	}
}

// DB is an opened SeqDB file supporting concurrent chunk reads.
type DB struct {
	r      io.ReaderAt
	nRecs  uint64
	chunks []ChunkInfo
}

// OpenSeqDB parses the header and chunk index. The ReaderAt stays owned by
// the caller (close the file yourself).
func OpenSeqDB(r io.ReaderAt) (*DB, error) {
	var hdr [headerSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("seqio: reading SeqDB header: %w", err)
	}
	if string(hdr[0:4]) != seqdbMagic {
		return nil, fmt.Errorf("seqio: bad SeqDB magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != seqdbVersion {
		return nil, fmt.Errorf("seqio: unsupported SeqDB version %d", v)
	}
	db := &DB{r: r, nRecs: binary.LittleEndian.Uint64(hdr[8:])}
	nChunks := binary.LittleEndian.Uint64(hdr[16:])
	indexOff := binary.LittleEndian.Uint64(hdr[24:])
	if nChunks > 1<<32 {
		return nil, fmt.Errorf("seqio: implausible chunk count %d", nChunks)
	}
	// Stream the index rather than sizing a buffer from the header: a forged
	// chunk count then fails on a short read, not on a huge allocation.
	idx := bufio.NewReader(io.NewSectionReader(r, int64(indexOff), int64(nChunks*indexEntry)))
	var e [indexEntry]byte
	for i := uint64(0); i < nChunks; i++ {
		if _, err := io.ReadFull(idx, e[:]); err != nil {
			return nil, fmt.Errorf("seqio: reading SeqDB index: %w", err)
		}
		c := ChunkInfo{
			Off:   binary.LittleEndian.Uint64(e[0:]),
			Size:  binary.LittleEndian.Uint64(e[8:]),
			First: binary.LittleEndian.Uint64(e[16:]),
			Count: binary.LittleEndian.Uint64(e[24:]),
		}
		// A chunk's payload lies between the header and the index, and
		// no record is empty, so ReadChunk can size its buffers from the
		// entry without trusting it further.
		if c.Off < headerSize || c.Off > indexOff || c.Size > indexOff-c.Off {
			return nil, fmt.Errorf("seqio: chunk %d (%d bytes at %d) lies outside the payload [%d, %d)", i, c.Size, c.Off, headerSize, indexOff)
		}
		if c.Count > c.Size {
			return nil, fmt.Errorf("seqio: chunk %d claims %d records in %d bytes", i, c.Count, c.Size)
		}
		db.chunks = append(db.chunks, c)
	}
	return db, nil
}

// NumRecords returns the total record count.
func (db *DB) NumRecords() int { return int(db.nRecs) }

// NumChunks returns the chunk count.
func (db *DB) NumChunks() int { return len(db.chunks) }

// Chunk returns the descriptor of chunk i.
func (db *DB) Chunk(i int) ChunkInfo { return db.chunks[i] }

// ReadChunk decodes chunk i. Safe for concurrent use (ReadAt-based).
func (db *DB) ReadChunk(i int) ([]Seq, error) {
	if i < 0 || i >= len(db.chunks) {
		return nil, fmt.Errorf("seqio: chunk %d out of range (%d chunks)", i, len(db.chunks))
	}
	c := db.chunks[i]
	raw := make([]byte, c.Size)
	if _, err := db.r.ReadAt(raw, int64(c.Off)); err != nil {
		return nil, fmt.Errorf("seqio: reading chunk %d: %w", i, err)
	}
	out := make([]Seq, 0, c.Count)
	for pos := 0; pos < len(raw); {
		s, next, err := decodeRecord(raw, pos)
		if err != nil {
			return nil, fmt.Errorf("seqio: chunk %d: %w", i, err)
		}
		out = append(out, s)
		pos = next
	}
	if uint64(len(out)) != c.Count {
		return nil, fmt.Errorf("seqio: chunk %d decoded %d records, index says %d", i, len(out), c.Count)
	}
	return out, nil
}

// decodeRecord decodes the record at raw[pos:]. Every length is an
// untrusted uvarint: it is compared, as a uint64, with the bytes left before
// it is converted to int, so no value can wrap into a negative slice bound.
func decodeRecord(raw []byte, pos int) (Seq, int, error) {
	nameLen, n := binary.Uvarint(raw[pos:])
	if n <= 0 {
		return Seq{}, 0, fmt.Errorf("corrupt name length at %d", pos)
	}
	pos += n
	if nameLen > uint64(len(raw)-pos) {
		return Seq{}, 0, fmt.Errorf("truncated name at %d", pos)
	}
	name := string(raw[pos : pos+int(nameLen)])
	pos += int(nameLen)
	seqLen, n := binary.Uvarint(raw[pos:])
	if n <= 0 {
		return Seq{}, 0, fmt.Errorf("corrupt sequence length at %d", pos)
	}
	pos += n
	packed := seqLen/4 + (seqLen%4+3)/4  // 2-bit bases, rounded up to a byte
	if packed+1 > uint64(len(raw)-pos) { // +1: the quality flag
		return Seq{}, 0, fmt.Errorf("truncated sequence at %d", pos)
	}
	packedLen := int(packed)
	p := packedFromBytes(raw[pos:pos+packedLen], int(seqLen))
	pos += packedLen
	qualFlag := raw[pos]
	pos++
	var qual []byte
	if qualFlag == 1 {
		if seqLen > uint64(len(raw)-pos) {
			return Seq{}, 0, fmt.Errorf("truncated quality at %d", pos)
		}
		qual = append([]byte(nil), raw[pos:pos+int(seqLen)]...)
		pos += int(seqLen)
	} else if qualFlag != 0 {
		return Seq{}, 0, fmt.Errorf("corrupt quality flag %d at %d", qualFlag, pos-1)
	}
	return Seq{Name: name, Seq: p, Qual: qual}, pos, nil
}

// packedFromBytes reinterprets raw packed bytes as a dna.Packed of n bases.
func packedFromBytes(raw []byte, n int) dna.Packed {
	codes := make([]byte, n)
	for i := 0; i < n; i++ {
		codes[i] = (raw[i>>2] >> uint((i&3)<<1)) & 3
	}
	return dna.FromCodes(codes)
}

// ConvertFastq converts a FASTQ stream into a SeqDB file in one pass
// (lossless, per §V-A), returning record count and the compression ratio
// seqdbBytes/fastqBytes.
func ConvertFastq(r io.Reader, w io.WriteSeeker, recordsPerChunk int, opt ParseOptions) (int, float64, error) {
	counting := &countingReader{r: r}
	seqs, err := ReadFastq(counting, opt)
	if err != nil {
		return 0, 0, err
	}
	chunks, err := WriteSeqDB(w, seqs, recordsPerChunk)
	if err != nil {
		return 0, 0, err
	}
	var out uint64 = headerSize
	for _, c := range chunks {
		out += c.Size + indexEntry
	}
	ratio := float64(out) / float64(counting.n)
	return len(seqs), ratio, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
