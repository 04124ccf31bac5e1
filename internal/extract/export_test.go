package extract

import "hash/maphash"

// ValueHash is the hash BindProto gives identifier value v.
func ValueHash(v string) uint64 { return maphash.String(idSeed, v) }
