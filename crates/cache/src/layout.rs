//! The two on-flash formats the cache trusts after a crash (DESIGN.md
//! §6.4–6.5): the LOC region footer and the SOC bucket page. This is
//! the only code that knows their bytes. Each format is a pure
//! encode/decode pair over byte slices; the engines keep every device
//! read and write, their retries and their fault handling.
//!
//! Neither engine writes an encoded page. It hands the device a
//! `page_source` over what the pages list — the SOC one source over
//! its whole bucket table, the LOC an owned copy of each footer's
//! entry table — and the payload store runs the encoder only when a
//! block is read.
//!
//! A decoder judges every byte it is handed and names what it rejects
//! ([`Malformed`]); nothing it returns is believed before the checksum
//! that covers it holds. `tests/integration_layout.rs` enumerates the
//! malformed pages of both formats on small geometries: every
//! single-bit flip, every truncation and torn prefix, every swap of two
//! footer blocks, and every footer header that checksums but lies.

use std::sync::{Arc, LazyLock};

use fdpcache_nvme::FillSource;

use crate::checksum::{mix64, page_checksum, SEED};
use crate::value::Value;
use crate::Key;

/// Footer block magic ("LOCM").
const FOOTER_MAGIC: u32 = 0x4C4F_434D;
/// Footer format version. 2: the lane-parallel page checksum
/// (DESIGN.md §6.5). No image outlives the process that wrote it, so
/// older versions are rejected, not migrated.
const FOOTER_VERSION: u32 = 2;
/// Per-footer-block header: magic (4) + version (4) + seal sequence
/// (8) + region (4) + block index (4) + entries in this block (4) +
/// total entries in the footer (4).
const FOOTER_HEADER_BYTES: usize = 32;
/// Per-entry footer bytes: key (8) + offset (4) + length (4).
const FOOTER_ENTRY_BYTES: usize = 16;
/// The checksum ending a footer block, and the trailer ending a bucket
/// page.
const CHECKSUM_BYTES: usize = 8;

/// Bucket page magic ("SOCB").
const BUCKET_MAGIC: u32 = 0x534F_4342;
/// Bucket page header: magic (4) + entry count (4).
const BUCKET_HEADER_BYTES: usize = 8;
/// Per-entry bucket header: key (8) + payload length (4).
const BUCKET_ENTRY_BYTES: usize = 12;

/// What a decoder found wrong with a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Malformed {
    /// Fewer bytes than the page needs.
    Short {
        /// Blocks the footer spans (1 while block 0 is cut short).
        blocks: usize,
    },
    /// A footer block's checksum or a bucket page's trailer fails.
    Checksum,
    /// Not the format's magic.
    Magic,
    /// A footer block of another format version.
    Version,
    /// A footer block of another region.
    Region,
    /// A footer block out of place: its index is not its position.
    BlockIndex,
    /// A footer block of another seal than block 0's.
    Seq,
    /// A footer block of another total than block 0's.
    Total,
    /// A footer total no slot holds.
    Capacity,
    /// A footer block not holding its share of the total, or a bucket
    /// count no page holds.
    Count,
    /// A footer entry past the payload, or a bucket entry into the
    /// trailer.
    EntryPastEnd,
}

/// The source of every page written to a store that retains no data:
/// zeros, built once and shared, so those writes allocate nothing.
static BLANK_PAGE: LazyLock<FillSource> = LazyLock::new(|| Arc::new(|_, out| out.fill(0)));

/// The source of a run of `page_bytes` pages, page `i` of which
/// `encode(i, page)` writes whole, whatever `page` held; a write of
/// page `i` alone passes `i × page_bytes` as its base. A read that
/// covers a page whole has it encoded in place; one that covers it in
/// part has it encoded into a scratch page and sliced. `encoder` builds
/// `encode` — taking hold of what the pages list — only on a store
/// that retains data; any other store gets one shared source of zeros.
pub(crate) fn page_source<E>(
    retains_data: bool,
    page_bytes: usize,
    encoder: impl FnOnce() -> E,
) -> FillSource
where
    E: Fn(usize, &mut [u8]) + Send + Sync + 'static,
{
    if !retains_data {
        return BLANK_PAGE.clone();
    }
    let encode = encoder();
    Arc::new(move |at, out| {
        let mut pos = 0;
        while pos < out.len() {
            let (page, skip) = ((at + pos) / page_bytes, (at + pos) % page_bytes);
            let n = (page_bytes - skip).min(out.len() - pos);
            if n == page_bytes {
                encode(page, &mut out[pos..pos + n]);
            } else {
                let mut scratch = vec![0u8; page_bytes];
                encode(page, &mut scratch);
                out[pos..pos + n].copy_from_slice(&scratch[skip..skip + n]);
            }
            pos += n;
        }
    })
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One footer entry: a key, its object's offset in the region and its
/// length.
pub type FooterEntry = (Key, u32, u32);

/// The header every footer block carries (DESIGN.md §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FooterHeader {
    /// The region's seal sequence.
    pub seq: u64,
    /// The region the footer describes.
    pub region: u32,
    /// The block's index within the footer.
    pub block: u32,
    /// Entries in this block.
    pub count: u32,
    /// Entries in the whole footer.
    pub total: u32,
}

/// A footer that decoded whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// The seal sequence every block carries.
    pub seq: u64,
    /// The entry table, in on-flash order.
    pub entries: Vec<FooterEntry>,
}

/// The geometry footers are encoded and judged against: the block
/// size, the blocks of a region's footer slot, and the region payload
/// bytes every entry must lie within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FooterGeometry {
    block_bytes: usize,
    slot_blocks: usize,
    payload_bytes: usize,
}

impl FooterGeometry {
    /// A geometry of `slot_blocks` blocks of `block_bytes` per footer
    /// slot, over regions of `payload_bytes`. Panics when a block cannot
    /// hold its header and checksum.
    pub fn new(block_bytes: usize, slot_blocks: usize, payload_bytes: usize) -> Self {
        assert!(block_bytes >= FOOTER_HEADER_BYTES + CHECKSUM_BYTES, "{block_bytes}-byte blocks");
        FooterGeometry { block_bytes, slot_blocks, payload_bytes }
    }

    /// Bytes of a whole footer slot.
    pub fn slot_bytes(&self) -> usize {
        self.slot_blocks * self.block_bytes
    }

    /// Entries one footer block holds.
    pub fn entries_per_block(&self) -> usize {
        (self.block_bytes - FOOTER_HEADER_BYTES - CHECKSUM_BYTES) / FOOTER_ENTRY_BYTES
    }

    /// Entries a footer filling its whole slot holds.
    pub fn capacity(&self) -> usize {
        self.slot_blocks * self.entries_per_block()
    }

    /// Blocks a footer of `entries` entries spans: as long as its entry
    /// table, at least one (an empty footer still carries its seal
    /// sequence).
    pub fn blocks_for(&self, entries: usize) -> usize {
        entries.div_ceil(self.entries_per_block()).max(1)
    }

    /// Block `bi`'s share of a footer of `total` entries: every block
    /// but the last is full.
    fn share(&self, bi: usize, total: usize) -> usize {
        let per = self.entries_per_block();
        per.min(total - (bi * per).min(total))
    }

    /// Encodes the footer of `region` under seal sequence `seq` listing
    /// `entries` in order into the head of `slot`, whatever it held
    /// before, and returns the blocks written. Every block carries the
    /// full header and its own checksum, so a torn block fails alone.
    pub fn encode(&self, region: u32, seq: u64, entries: &[FooterEntry], slot: &mut [u8]) -> usize {
        let blocks = self.blocks_for(entries.len());
        let bb = self.block_bytes;
        for (bi, block) in slot[..blocks * bb].chunks_exact_mut(bb).enumerate() {
            self.encode_block(region, seq, entries, bi, block);
        }
        blocks
    }

    /// Encodes block `bi` of the footer [`FooterGeometry::encode`]
    /// writes: the header, the block's share of `entries` and its
    /// checksum.
    fn encode_block(
        &self,
        region: u32,
        seq: u64,
        entries: &[FooterEntry],
        bi: usize,
        block: &mut [u8],
    ) {
        let total = entries.len();
        debug_assert!(total <= self.capacity(), "{total} entries");
        let count = self.share(bi, total);
        let own = &entries[(bi * self.entries_per_block()).min(total)..][..count];
        let header = FooterHeader {
            seq,
            region,
            block: bi as u32,
            count: count as u32,
            total: total as u32,
        };
        encode_footer_block(&header, own.iter().copied(), block);
    }

    /// The footer [`FooterGeometry::encode`] writes, as a source of its
    /// blocks: on a store that retains data, an owned copy of `entries`
    /// that the source encodes block by block as blocks are read; on
    /// any other, one shared source of zeros.
    pub fn source(
        &self,
        retains_data: bool,
        region: u32,
        seq: u64,
        entries: impl IntoIterator<Item = FooterEntry>,
    ) -> FillSource {
        let geo = *self;
        page_source(retains_data, self.block_bytes, || {
            let entries: Vec<FooterEntry> = entries.into_iter().collect();
            move |bi, block: &mut [u8]| geo.encode_block(region, seq, &entries, bi, block)
        })
    }

    /// Decodes the footer of `region` from the head of its slot. Block 0
    /// is judged whole — checksum, header, a total the slot holds, its
    /// share of entries, each within the payload — before its total is
    /// believed; if `bytes` is shorter than the blocks that total spans,
    /// the answer is [`Malformed::Short`] with the span, so a reader can
    /// fetch exactly those. Each further block must pass the same checks
    /// and carry block 0's sequence and total. Bytes past the span, an
    /// older footer's leftovers, are not read.
    pub fn decode(&self, region: u32, bytes: &[u8]) -> Result<Footer, Malformed> {
        let bb = self.block_bytes;
        let block0 = bytes.get(..bb).ok_or(Malformed::Short { blocks: 1 })?;
        let head = footer_header(region, 0, block0)?;
        let total = head.total as usize;
        if total > self.capacity() {
            return Err(Malformed::Capacity);
        }
        let mut entries = Vec::with_capacity(total);
        self.block_entries(&head, block0, &mut entries)?;
        let blocks = self.blocks_for(total);
        let rest = bytes.get(bb..blocks * bb).ok_or(Malformed::Short { blocks })?;
        for (bi, block) in rest.chunks_exact(bb).enumerate() {
            let header = footer_header(region, bi + 1, block)?;
            if header.seq != head.seq {
                return Err(Malformed::Seq);
            }
            if header.total != head.total {
                return Err(Malformed::Total);
            }
            self.block_entries(&header, block, &mut entries)?;
        }
        Ok(Footer { seq: head.seq, entries })
    }

    /// Appends the entries of a block whose `header` validated, after
    /// checking its count is its share of the total and every entry
    /// lies within the payload.
    fn block_entries(
        &self,
        header: &FooterHeader,
        block: &[u8],
        entries: &mut Vec<FooterEntry>,
    ) -> Result<(), Malformed> {
        let count = header.count as usize;
        if count != self.share(header.block as usize, header.total as usize) {
            return Err(Malformed::Count);
        }
        let table = &block[FOOTER_HEADER_BYTES..FOOTER_HEADER_BYTES + count * FOOTER_ENTRY_BYTES];
        for entry in table.chunks_exact(FOOTER_ENTRY_BYTES) {
            let (key, offset, len) = (u64_at(entry, 0), u32_at(entry, 8), u32_at(entry, 12));
            if offset as u64 + len as u64 > self.payload_bytes as u64 {
                return Err(Malformed::EntryPastEnd);
            }
            entries.push((key, offset, len));
        }
        Ok(())
    }
}

/// Encodes one footer block: `header` as given, then `entries` (as
/// many as the block holds), zeros up to the checksum, and the
/// checksum of everything before it. [`FooterGeometry::encode`] writes
/// every block through this; a caller may also write a header no
/// encoder would, which a decoder must then reject.
pub fn encode_footer_block(
    header: &FooterHeader,
    entries: impl Iterator<Item = FooterEntry>,
    block: &mut [u8],
) {
    let cut = block.len() - CHECKSUM_BYTES;
    block[0..4].copy_from_slice(&FOOTER_MAGIC.to_le_bytes());
    block[4..8].copy_from_slice(&FOOTER_VERSION.to_le_bytes());
    block[8..16].copy_from_slice(&header.seq.to_le_bytes());
    block[16..20].copy_from_slice(&header.region.to_le_bytes());
    block[20..24].copy_from_slice(&header.block.to_le_bytes());
    block[24..28].copy_from_slice(&header.count.to_le_bytes());
    block[28..32].copy_from_slice(&header.total.to_le_bytes());
    let mut off = FOOTER_HEADER_BYTES;
    for (key, offset, len) in entries.take((cut - off) / FOOTER_ENTRY_BYTES) {
        block[off..off + 8].copy_from_slice(&key.to_le_bytes());
        block[off + 8..off + 12].copy_from_slice(&offset.to_le_bytes());
        block[off + 12..off + 16].copy_from_slice(&len.to_le_bytes());
        off += FOOTER_ENTRY_BYTES;
    }
    block[off..cut].fill(0);
    let sum = page_checksum(&block[..cut]);
    block[cut..].copy_from_slice(&sum.to_le_bytes());
}

/// The header of a footer block read back as block `index` of
/// `region`'s footer: trusted only once the block's checksum holds and
/// its magic, version, region and index are the ones asked for.
pub fn footer_header(region: u32, index: usize, block: &[u8]) -> Result<FooterHeader, Malformed> {
    let cut = block.len().checked_sub(CHECKSUM_BYTES).ok_or(Malformed::Short { blocks: 1 })?;
    if cut < FOOTER_HEADER_BYTES {
        return Err(Malformed::Short { blocks: 1 });
    }
    if u64_at(block, cut) != page_checksum(&block[..cut]) {
        return Err(Malformed::Checksum);
    }
    let header = FooterHeader {
        seq: u64_at(block, 8),
        region: u32_at(block, 16),
        block: u32_at(block, 20),
        count: u32_at(block, 24),
        total: u32_at(block, 28),
    };
    if u32_at(block, 0) != FOOTER_MAGIC {
        Err(Malformed::Magic)
    } else if u32_at(block, 4) != FOOTER_VERSION {
        Err(Malformed::Version)
    } else if header.region != region {
        Err(Malformed::Region)
    } else if header.block as usize != index {
        Err(Malformed::BlockIndex)
    } else {
        Ok(header)
    }
}

/// Page bytes a bucket entry of a `len`-byte payload occupies.
pub fn bucket_entry_bytes(len: usize) -> usize {
    BUCKET_ENTRY_BYTES + len
}

/// Page bytes a `page_bytes` bucket page leaves its entries: all but
/// its header and trailer.
pub fn bucket_room(page_bytes: usize) -> usize {
    page_bytes - BUCKET_HEADER_BYTES - CHECKSUM_BYTES
}

/// Encodes the bucket page of `entries`, in list order, into `page`,
/// whatever it held before, in one pass: header and entries written in
/// place, each entry digested (DESIGN.md §6.5) right after it is
/// written, the gap before the trailer zeroed, and the trailer — the
/// ordered fold of the count, every entry's digest and the used length
/// — last. The entries must fit in [`bucket_room`].
pub fn encode_bucket<'a>(
    entries: impl ExactSizeIterator<Item = (Key, &'a Value)>,
    page: &mut [u8],
) {
    let (body, trailer) = page.split_at_mut(page.len() - CHECKSUM_BYTES);
    let count = entries.len();
    body[0..4].copy_from_slice(&BUCKET_MAGIC.to_le_bytes());
    body[4..8].copy_from_slice(&(count as u32).to_le_bytes());
    let mut fold = mix64(SEED ^ count as u64);
    let mut used = BUCKET_HEADER_BYTES;
    for (key, value) in entries {
        let entry = &mut body[used..used + bucket_entry_bytes(value.len())];
        entry[0..8].copy_from_slice(&key.to_le_bytes());
        entry[8..12].copy_from_slice(&(value.len() as u32).to_le_bytes());
        value.materialize(key, &mut entry[BUCKET_ENTRY_BYTES..]);
        fold = mix64(fold ^ page_checksum(entry));
        used += entry.len();
    }
    body[used..].fill(0);
    trailer.copy_from_slice(&mix64(fold ^ used as u64).to_le_bytes());
}

/// Decodes a bucket page into each entry's key and payload, in list
/// order. The count and lengths are only bounds-checked to find the
/// entries; every entry's digest is recomputed from the page's own
/// bytes, and nothing is returned unless the trailer then holds — it
/// vouches for the count, every header and payload byte, their order
/// and the used length. The zero padding behind the entries is not
/// covered: nothing reads it.
pub fn decode_bucket(page: &[u8]) -> Result<Vec<(Key, &[u8])>, Malformed> {
    if page.len() < BUCKET_HEADER_BYTES + CHECKSUM_BYTES {
        return Err(Malformed::Short { blocks: 1 });
    }
    let cut = page.len() - CHECKSUM_BYTES;
    if u32_at(page, 0) != BUCKET_MAGIC {
        return Err(Malformed::Magic);
    }
    // Untrusted until the trailer holds: bound it before allocating.
    let count = u32_at(page, 4) as usize;
    if count > (cut - BUCKET_HEADER_BYTES) / BUCKET_ENTRY_BYTES {
        return Err(Malformed::Count);
    }
    let mut entries = Vec::with_capacity(count);
    let mut fold = mix64(SEED ^ count as u64);
    let mut used = BUCKET_HEADER_BYTES;
    for _ in 0..count {
        // Bounded by what is left of the page, so no sum overflows.
        let left = (cut - used).checked_sub(BUCKET_ENTRY_BYTES).ok_or(Malformed::EntryPastEnd)?;
        let len = u32_at(page, used + 8) as usize;
        if len > left {
            return Err(Malformed::EntryPastEnd);
        }
        let end = used + bucket_entry_bytes(len);
        fold = mix64(fold ^ page_checksum(&page[used..end]));
        entries.push((u64_at(page, used), &page[used + BUCKET_ENTRY_BYTES..end]));
        used = end;
    }
    if u64_at(page, cut) != mix64(fold ^ used as u64) {
        return Err(Malformed::Checksum);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    //! The cases only this module can forge: headers that checksum but
    //! name another format, and bucket counts and lengths that run off
    //! the page. The sweeps over the public codecs are in
    //! `tests/integration_layout.rs`.
    use super::*;

    /// Re-checksums `block` after a header edit.
    fn reseal(block: &mut [u8]) {
        let cut = block.len() - CHECKSUM_BYTES;
        let sum = page_checksum(&block[..cut]);
        block[cut..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn a_checksummed_footer_block_of_another_format_is_rejected() {
        let geo = FooterGeometry::new(128, 2, 4096);
        let mut slot = vec![0u8; geo.slot_bytes()];
        geo.encode(3, 9, &[(1, 0, 10)], &mut slot);
        assert_eq!(geo.decode(3, &slot).map(|f| f.entries), Ok(vec![(1, 0, 10)]));
        for (at, what) in [(0, Malformed::Magic), (4, Malformed::Version)] {
            let mut forged = slot.clone();
            forged[at] ^= 1;
            reseal(&mut forged[..128]);
            assert_eq!(geo.decode(3, &forged), Err(what));
        }
    }

    #[test]
    fn bucket_counts_and_lengths_that_leave_the_page_are_rejected() {
        assert_eq!(decode_bucket(&[]), Err(Malformed::Short { blocks: 1 }));
        assert_eq!(decode_bucket(&[0; 256]), Err(Malformed::Magic));
        let value = Value::synthetic(20);
        let mut page = vec![0u8; 256];
        encode_bucket([(5, &value), (6, &value)].into_iter(), &mut page);
        let max = (256 - BUCKET_HEADER_BYTES - CHECKSUM_BYTES) / BUCKET_ENTRY_BYTES;
        for (at, lie, what) in [
            (4, max as u32 + 1, Malformed::Count),
            (4, u32::MAX, Malformed::Count),
            (4, max as u32, Malformed::EntryPastEnd),
            (16, 256, Malformed::EntryPastEnd),
            (16, u32::MAX, Malformed::EntryPastEnd),
        ] {
            let mut forged = page.clone();
            forged[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            assert_eq!(decode_bucket(&forged), Err(what), "{lie} at {at}");
        }
    }
}
