package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	fastbcc "repro"
)

// Mutation frames: the binary codec behind POST /v1/graphs/{name}/edges,
// negotiated exactly like the batch-query frames:
//
//	request  = u32 frameLen | "bcu1" | u32 addCount | u32 delCount |
//	           addCount × edge | delCount × edge
//	edge     = i32 u | i32 w                          (8 bytes)
//	response = u32 frameLen | "bcm1" | i64 version | u32 fast |
//	           u32 collapsed | u32 queued | u32 pending | i64 deltaAgeNs
//
// The collapsed slot is retired and always 0 (fastbcc.MutationResult
// documents the field); it stays so the frame layout does not change.
// frameLen counts the bytes after the length prefix; both counts are
// bounded by MaxMutations and cross-checked against frameLen before any
// slice is sized from them — the same allocation discipline as the
// query frames.

// MutationContentType is the MIME type negotiated for binary mutation
// frames.
const MutationContentType = "application/x-fastbcc-mutation"

// MaxMutations bounds adds+dels in one request frame.
const MaxMutations = 1 << 20

// Frame magics: "bcu1" opens a mutation request (update), "bcm1" its
// result.
var (
	mutReqMagic  = [4]byte{'b', 'c', 'u', '1'}
	mutRespMagic = [4]byte{'b', 'c', 'm', '1'}
)

const (
	edgeSize          = 8               // 2 × i32
	mutReqHeaderSize  = 4 + 4 + 4       // magic + addCount + delCount
	mutRespHeaderSize = 4 + 8 + 4*4 + 8 // magic + version + 4 counters + ageNs
	maxMutFrameLen    = mutReqHeaderSize + MaxMutations*edgeSize
)

// AppendMutation appends a mutation request frame carrying adds and dels
// to dst and returns the extended slice.
func AppendMutation(dst []byte, adds, dels []fastbcc.Edge) []byte {
	frameLen := mutReqHeaderSize + (len(adds)+len(dels))*edgeSize
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, mutReqMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(adds)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dels)))
	for _, es := range [2][]fastbcc.Edge{adds, dels} {
		for _, e := range es {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.U))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.W))
		}
	}
	return dst
}

// ReadMutation decodes one mutation request frame from r. Endpoint
// bounds are not validated here — the Store rejects out-of-range ids
// with a better error than the frame layer could give.
func ReadMutation(r io.Reader) (adds, dels []fastbcc.Edge, err error) {
	body, err := readMutFrame(r, mutReqMagic, mutReqHeaderSize)
	if err != nil {
		return nil, nil, err
	}
	addCount := binary.LittleEndian.Uint32(body[4:8])
	delCount := binary.LittleEndian.Uint32(body[8:12])
	if addCount > MaxMutations || delCount > MaxMutations ||
		addCount+delCount > MaxMutations {
		return nil, nil, fmt.Errorf("wire: %w: %d+%d > %d",
			ErrTooLarge, addCount, delCount, MaxMutations)
	}
	payload := body[mutReqHeaderSize:]
	if len(payload) != int(addCount+delCount)*edgeSize {
		return nil, nil, fmt.Errorf("wire: %w: %d+%d edges declared, %d bytes of payload",
			ErrMalformed, addCount, delCount, len(payload))
	}
	decode := func(n uint32) []fastbcc.Edge {
		if n == 0 {
			return nil
		}
		out := make([]fastbcc.Edge, 0, n)
		for i := uint32(0); i < n; i++ {
			rec := payload[i*edgeSize:]
			out = append(out, fastbcc.Edge{
				U: int32(binary.LittleEndian.Uint32(rec[0:4])),
				W: int32(binary.LittleEndian.Uint32(rec[4:8])),
			})
		}
		payload = payload[n*edgeSize:]
		return out
	}
	adds = decode(addCount)
	dels = decode(delCount)
	return adds, dels, nil
}

// AppendMutationResult appends a mutation response frame carrying res to
// dst and returns the extended slice.
func AppendMutationResult(dst []byte, res fastbcc.MutationResult) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(mutRespHeaderSize))
	dst = append(dst, mutRespMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(res.Version))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(res.Fast))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(res.Collapsed))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(res.Queued))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(res.Pending))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(res.DeltaAge))
	return dst
}

// ReadMutationResult decodes one mutation response frame from r.
func ReadMutationResult(r io.Reader) (fastbcc.MutationResult, error) {
	body, err := readMutFrame(r, mutRespMagic, mutRespHeaderSize)
	if err != nil {
		return fastbcc.MutationResult{}, err
	}
	if len(body) != mutRespHeaderSize {
		return fastbcc.MutationResult{}, fmt.Errorf("wire: %w: result frame of %d bytes, want %d",
			ErrMalformed, len(body), mutRespHeaderSize)
	}
	return fastbcc.MutationResult{
		Version:   int64(binary.LittleEndian.Uint64(body[4:12])),
		Fast:      int(binary.LittleEndian.Uint32(body[12:16])),
		Collapsed: int(binary.LittleEndian.Uint32(body[16:20])),
		Queued:    int(binary.LittleEndian.Uint32(body[20:24])),
		Pending:   int(binary.LittleEndian.Uint32(body[24:28])),
		DeltaAge:  time.Duration(binary.LittleEndian.Uint64(body[28:36])),
	}, nil
}

// readMutFrame is readFrame with the mutation frames' length bound.
func readMutFrame(r io.Reader, magic [4]byte, minLen int) ([]byte, error) {
	return readFrameBounded(r, magic, minLen, maxMutFrameLen)
}
