//! Every malformed page of the two on-flash formats the cache trusts
//! after a crash (`fdpcache_cache::layout`, DESIGN.md §6.4–6.5),
//! enumerated on small geometries rather than sampled: each single-bit
//! flip, each truncation, each torn prefix of one page over another,
//! each swap of two footer blocks, and each footer header that
//! checksums but lies. A decoder that accepts one of them, or rejects
//! it for another reason than the one named, fails here. The cases are
//! built with the module's own encoders, so nothing here knows where a
//! field sits.

use fdpcache_cache::layout::{
    bucket_entry_bytes, bucket_room, decode_bucket, encode_bucket, encode_footer_block,
    footer_header, Footer, FooterEntry, FooterGeometry, FooterHeader, Malformed,
};
use fdpcache_cache::value::Value;

/// Footer block bytes: five entries to a block.
const BB: usize = 128;
/// Region payload bytes the entries address.
const PAYLOAD: u32 = 4096;
/// The region every footer here describes.
const REGION: u32 = 2;

/// Three-block slots of [`BB`]-byte blocks over [`PAYLOAD`]: room for
/// fifteen entries.
fn geo() -> FooterGeometry {
    FooterGeometry::new(BB, 3, PAYLOAD as usize)
}

/// `n` 200-byte objects packed from offset 0; `salt` varies the keys.
fn entries(n: usize, salt: u64) -> Vec<FooterEntry> {
    (0..n as u32)
        .map(|i| ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt, i * 200, 200))
        .collect()
}

/// The footer of `entries` under `seq`, at the head of a zeroed slot.
fn slot(seq: u64, entries: &[FooterEntry]) -> Vec<u8> {
    let mut slot = vec![0u8; geo().slot_bytes()];
    geo().encode(REGION, seq, entries, &mut slot);
    slot
}

fn block(bytes: &[u8], bi: usize) -> &[u8] {
    &bytes[bi * BB..(bi + 1) * BB]
}

#[test]
fn footers_of_every_length_round_trip_and_leave_older_leftovers_unread() {
    let g = geo();
    assert_eq!((g.entries_per_block(), g.capacity()), (5, 15));
    let stale = slot(3, &entries(15, 1));
    for n in 0..=g.capacity() {
        let listed = entries(n, 0);
        let mut bytes = stale.clone();
        let blocks = g.encode(REGION, 7, &listed, &mut bytes);
        assert_eq!(blocks, g.blocks_for(n));
        let whole = Ok(Footer { seq: 7, entries: listed });
        assert_eq!(g.decode(REGION, &bytes), whole, "{n} entries over an older footer");
        assert_eq!(g.decode(REGION, &bytes[..blocks * BB]), whole, "{n} entries alone");
        for bi in 0..blocks {
            let h = footer_header(REGION, bi, block(&bytes, bi)).unwrap();
            assert_eq!((h.seq, h.block, h.total), (7, bi as u32, n as u32), "{n} entries");
        }
    }
}

/// The footer a LOC writes is a source of its blocks
/// ([`FooterGeometry::source`]), not encoded bytes: for every length,
/// every block-aligned range of it — recovery's block 0 and then the
/// rest among them — and every range that cuts a block reads as the
/// same bytes [`FooterGeometry::encode`] writes. A store that retains
/// no data gets zeros.
#[test]
fn a_footer_source_reads_as_the_encoded_footer_over_every_range() {
    let g = geo();
    for n in 0..=g.capacity() {
        let listed = entries(n, 0);
        let blocks = g.blocks_for(n);
        let encoded = &slot(7, &listed)[..blocks * BB];
        let source = g.source(true, REGION, 7, listed.clone());
        for first in 0..blocks {
            for end in first + 1..=blocks {
                let mut out = vec![0xEEu8; (end - first) * BB];
                source(first * BB, &mut out);
                assert!(out == encoded[first * BB..end * BB], "{n} entries, blocks {first}..{end}");
            }
        }
        for (at, len) in [(1, BB), (BB - 8, 16), (BB / 2, blocks * BB - BB / 2), (3, 5)] {
            let len = len.min(blocks * BB - at);
            let mut out = vec![0xEEu8; len];
            source(at, &mut out);
            assert!(out == encoded[at..at + len], "{n} entries, {len} bytes from byte {at}");
        }
        let mut out = vec![0xEEu8; blocks * BB];
        g.source(false, REGION, 7, listed)(0, &mut out);
        assert!(out.iter().all(|&b| b == 0), "{n} entries on a store that keeps no data");
    }
}

#[test]
fn every_single_bit_flip_fails_its_block_checksum() {
    let g = geo();
    // An empty footer, a one-block one and one spanning the slot; a
    // flip past a footer's span is in bytes it does not own.
    for n in [0, 4, 12] {
        let bytes = slot(7, &entries(n, 0));
        let whole = g.decode(REGION, &bytes);
        assert!(whole.is_ok());
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let expect = if bit / 8 / BB < g.blocks_for(n) {
                Err(Malformed::Checksum)
            } else {
                whole.clone()
            };
            assert_eq!(g.decode(REGION, &flipped), expect, "{n} entries, bit {bit}");
        }
    }
}

#[test]
fn every_truncation_of_a_footer_is_short() {
    let g = geo();
    for n in [0, 4, 7, 12, 15] {
        let bytes = slot(7, &entries(n, 0));
        let blocks = g.blocks_for(n);
        for len in 0..blocks * BB {
            let blocks = if len < BB { 1 } else { blocks };
            let got = g.decode(REGION, &bytes[..len]);
            assert_eq!(got, Err(Malformed::Short { blocks }), "{n} entries cut to {len} bytes");
        }
    }
}

/// Block prefixes of one slot image over the rest of another: a footer
/// write torn at a block boundary over what the slot held. The decoder
/// must return the prefix's footer if the prefix holds all of it, and
/// otherwise reject the first foreign block for what it is.
#[test]
fn every_torn_prefix_of_one_footer_over_another_is_rejected_or_whole() {
    let g = geo();
    let images = [
        slot(7, &entries(12, 0)),
        // The same table resealed: only the sequence differs.
        slot(11, &entries(12, 0)),
        // A rewrite of the first: the same sequence, one entry fewer.
        slot(7, &entries(11, 0)),
        // An older, longer seal of other keys.
        slot(3, &entries(15, 9)),
        // A short footer and a retirement.
        slot(8, &entries(4, 5)),
        slot(9, &[]),
        // A discarded slot.
        vec![0u8; g.slot_bytes()],
    ];
    let mut rejected = 0;
    for (a, head) in images.iter().enumerate() {
        for (b, tail) in images.iter().enumerate().filter(|&(b, _)| b != a) {
            for k in 1..3 {
                let torn = [&head[..k * BB], &tail[k * BB..]].concat();
                let expect = match g.decode(REGION, head) {
                    Ok(f) if g.blocks_for(f.entries.len()) <= k => Ok(f),
                    Ok(f) => Err(match footer_header(REGION, k, block(tail, k)) {
                        Err(e) => e,
                        Ok(h) if h.seq != f.seq => Malformed::Seq,
                        Ok(h) if h.total as usize != f.entries.len() => Malformed::Total,
                        Ok(_) => panic!("images {a} and {b} agree on block {k}'s header"),
                    }),
                    // The head's block 0 fails alone.
                    Err(e) => Err(e),
                };
                rejected += usize::from(expect.is_err());
                assert_eq!(g.decode(REGION, &torn), expect, "image {a} over {b} from block {k}");
            }
        }
    }
    assert!(rejected >= 40, "only {rejected} torn footers rejected");
}

#[test]
fn every_swap_of_two_footer_blocks_is_out_of_order() {
    let g = geo();
    for n in [6, 10, 12, 15] {
        let bytes = slot(7, &entries(n, 0));
        let blocks = g.blocks_for(n);
        for i in 0..blocks {
            for j in i + 1..blocks {
                let mut swapped = bytes.clone();
                let (front, back) = swapped.split_at_mut(j * BB);
                front[i * BB..(i + 1) * BB].swap_with_slice(&mut back[..BB]);
                let got = g.decode(REGION, &swapped);
                assert_eq!(got, Err(Malformed::BlockIndex), "{n} entries, blocks {i} and {j}");
            }
        }
    }
}

#[test]
fn every_header_that_checksums_but_lies_is_rejected() {
    let g = geo();
    let listed = entries(12, 0);
    let truth = slot(7, &listed);
    let per = g.entries_per_block();
    // `truth` with block `bi` re-encoded, its own entries kept, under
    // `header`: checksummed, so only the header's word can betray it.
    let lie = |bi: usize, header: FooterHeader| {
        let mut bytes = truth.clone();
        let own = &listed[bi * per..((bi + 1) * per).min(listed.len())];
        encode_footer_block(&header, own.iter().copied(), &mut bytes[bi * BB..(bi + 1) * BB]);
        bytes
    };
    let mut cases: Vec<(String, Vec<u8>, Malformed)> = Vec::new();
    for bi in 0..3 {
        let h = footer_header(REGION, bi, block(&truth, bi)).unwrap();
        assert_eq!(lie(bi, h), truth, "block {bi} re-encoded under its own header");
        for region in (0..6).filter(|&r| r != REGION) {
            cases.push((
                format!("block {bi}: region {region}"),
                lie(bi, FooterHeader { region, ..h }),
                Malformed::Region,
            ));
        }
        for index in (0..5).filter(|&i| i != h.block) {
            cases.push((
                format!("block {bi}: index {index}"),
                lie(bi, FooterHeader { block: index, ..h }),
                Malformed::BlockIndex,
            ));
        }
        for seq in [0, 6, 8, u64::MAX] {
            cases.push((
                format!("block {bi}: seq {seq}"),
                lie(bi, FooterHeader { seq, ..h }),
                Malformed::Seq,
            ));
        }
        // Above a block's capacity included.
        for count in (0..=per as u32 + 3).filter(|&c| c != h.count) {
            cases.push((
                format!("block {bi}: count {count}"),
                lie(bi, FooterHeader { count, ..h }),
                Malformed::Count,
            ));
        }
        // Block 0's total decides the span; a later block must agree.
        for total in (0..=g.capacity() as u32 + 1).filter(|&t| bi > 0 && t != h.total) {
            cases.push((
                format!("block {bi}: total {total}"),
                lie(bi, FooterHeader { total, ..h }),
                Malformed::Total,
            ));
        }
    }
    let head = footer_header(REGION, 0, block(&truth, 0)).unwrap();
    for total in [g.capacity() as u32 + 1, 1_000, u32::MAX] {
        cases.push((
            format!("block 0: total {total}"),
            lie(0, FooterHeader { total, ..head }),
            Malformed::Capacity,
        ));
    }
    for e in 0..listed.len() {
        let (key, ..) = listed[e];
        for (offset, len) in
            [(PAYLOAD - 199, 200), (PAYLOAD, 1), (0, PAYLOAD + 1), (u32::MAX, u32::MAX)]
        {
            let mut moved = listed.clone();
            moved[e] = (key, offset, len);
            cases.push((
                format!("entry {e} at {offset}+{len}"),
                slot(7, &moved),
                Malformed::EntryPastEnd,
            ));
        }
    }
    assert_eq!(g.decode(REGION, &truth).map(|f| f.entries), Ok(listed.clone()));
    for (what, bytes, expect) in cases {
        assert_eq!(g.decode(REGION, &bytes), Err(expect), "{what}");
    }
}

/// Bucket page bytes: the format is the same at any page size.
const PAGE: usize = 512;

/// Keys 1..=5, newest first, payload lengths all different, real and
/// synthetic.
fn base_list() -> Vec<(u64, Value)> {
    (1..=5u64)
        .rev()
        .map(|k| {
            let len = 20 + 7 * k as usize;
            let value = if k % 2 == 0 {
                Value::real(vec![k as u8 * 31; len])
            } else {
                Value::synthetic(len as u32)
            };
            (k, value)
        })
        .collect()
}

/// The page of `list`, encoded over garbage.
fn bucket(list: &[(u64, Value)]) -> Vec<u8> {
    let mut page = vec![0xA5; PAGE];
    encode_bucket(list.iter().map(|(k, v)| (*k, v)), &mut page);
    page
}

/// What `list`'s page must decode to.
fn expected(list: &[(u64, Value)]) -> Vec<(u64, Vec<u8>)> {
    list.iter().map(|(k, v)| (*k, v.to_bytes(*k))).collect()
}

/// `page` decoded, payloads copied out.
fn decoded(page: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, Malformed> {
    decode_bucket(page).map(|list| list.into_iter().map(|(k, bytes)| (k, bytes.to_vec())).collect())
}

/// One object that fills the room before the trailer exactly.
fn largest() -> Vec<(u64, Value)> {
    vec![(9, Value::synthetic((bucket_room(PAGE) - bucket_entry_bytes(0)) as u32))]
}

/// The page offset where `page`'s entries end: its padding starts.
fn entries_end(page: &[u8]) -> usize {
    let list = decode_bucket(page).unwrap();
    let (_, last) = list.last().expect("entries");
    last.as_ptr() as usize + last.len() - page.as_ptr() as usize
}

#[test]
fn bucket_pages_of_every_prefix_and_the_largest_object_round_trip() {
    let list = base_list();
    for n in 0..=list.len() {
        assert_eq!(decoded(&bucket(&list[..n])), Ok(expected(&list[..n])), "{n} entries");
    }
    let largest = largest();
    assert_eq!(decoded(&bucket(&largest)), Ok(expected(&largest)));
    assert_eq!(decode_bucket(&[]), Err(Malformed::Short { blocks: 1 }));
    assert_eq!(decode_bucket(&[0; PAGE]), Err(Malformed::Magic));
}

/// Every bit of the count, of each entry's key, length and payload, and
/// of the trailer is covered: a flip there is rejected. The zero padding
/// between the entries and the trailer is not — nothing reads it — so
/// a flip there decodes to the same list.
#[test]
fn every_single_bit_flip_of_a_bucket_page_is_rejected_but_in_the_padding() {
    let list = base_list();
    let page = bucket(&list);
    let end = entries_end(&page);
    let mut accepted = Vec::new();
    for bit in 0..PAGE * 8 {
        let mut flipped = page.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(got) = decoded(&flipped) {
            assert_eq!(got, expected(&list), "bit {bit} decoded to another list");
            accepted.push(bit / 8);
        }
    }
    accepted.dedup();
    // The largest object fills the room before the trailer exactly, so
    // its entries end where the trailer starts. Every padding byte
    // accepts its flips, the last one too, and no trailer byte does.
    let largest = largest();
    let trailer_at = entries_end(&bucket(&largest));
    assert!(end < trailer_at && trailer_at < PAGE);
    assert_eq!(
        accepted,
        (end..trailer_at).collect::<Vec<_>>(),
        "accepted flips are not the padding"
    );
}

#[test]
fn every_truncation_of_a_bucket_page_is_rejected() {
    let page = bucket(&base_list());
    for len in 0..PAGE {
        assert!(decode_bucket(&page[..len]).is_err(), "page cut to {len} bytes");
    }
}

/// A bucket write torn at any byte: a prefix of the new page over a
/// suffix of the old, and the reverse, for an insert, a replace by a
/// shorter and by a longer value, a remove, every truncation at an entry
/// boundary and every swap of two entries. A torn page decodes only if
/// it is, byte for byte, the page of the list it decodes to.
#[test]
fn every_torn_bucket_page_is_rejected_or_whole() {
    let old = base_list();
    let replace = |len: u32| {
        let mut list = old.clone();
        list.retain(|(k, _)| *k != 3);
        list.insert(0, (3, Value::synthetic(len)));
        list
    };
    let mut edits = vec![
        [vec![(6, Value::synthetic(60))], old.clone()].concat(),
        replace(5),
        replace(80),
        old.iter().filter(|(k, _)| *k != 3).cloned().collect(),
    ];
    edits.extend((0..old.len()).map(|keep| old[..keep].to_vec()));
    for i in 0..old.len() {
        for j in i + 1..old.len() {
            let mut swapped = old.clone();
            swapped.swap(i, j);
            edits.push(swapped);
        }
    }
    let old_page = bucket(&old);
    let mut rejected = 0;
    for (e, edit) in edits.iter().enumerate() {
        let new_page = bucket(edit);
        for cut in 0..=PAGE {
            for (head, tail) in [(&new_page, &old_page), (&old_page, &new_page)] {
                let torn = [&head[..cut], &tail[cut..]].concat();
                match decoded(&torn) {
                    Ok(list) => {
                        let list: Vec<(u64, Value)> =
                            list.into_iter().map(|(k, bytes)| (k, Value::real(bytes))).collect();
                        assert!(
                            bucket(&list) == torn,
                            "edit {e} torn at {cut}: not its list's page"
                        );
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    assert!(rejected >= edits.len() * PAGE / 2, "only {rejected} torn pages rejected");
}
