//! Hostile bytes into everything the daemon decodes: truncations,
//! bit flips, byte overwrites and short random buffers derived from the
//! pinned golden stream must make `read_frame`, `decode_events`,
//! `decode_capture`, `StreamHeader::decode` and `Query::decode` return
//! `Ok` or `Err`, never panic.
//!
//! The cases come from a seeded deterministic generator rather than
//! proptest (whose vendored stand-in does not shrink), so a failure
//! reproduces exactly on every run.

use cord_obs::wire::{decode_capture, decode_events, read_frame};
use cord_obs::StreamHeader;
use cord_serve::Query;
use std::io::Cursor;

fn golden() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../obs/tests/fixtures/golden.stream"
    );
    std::fs::read(path).expect("golden stream fixture")
}

/// SplitMix64: a fixed, dependency-free case generator.
struct Cases(u64);

impl Cases {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs every decoder over `bytes`, whole and frame by frame.
fn decode_everything(bytes: &[u8]) {
    let _ = decode_capture(bytes);
    let _ = decode_events(bytes);
    let _ = StreamHeader::decode(bytes);
    let _ = Query::decode(bytes);
    let mut cursor = Cursor::new(bytes);
    while let Ok(Some(payload)) = read_frame(&mut cursor) {
        let _ = StreamHeader::decode(&payload);
        let _ = Query::decode(&payload);
        if let Some((_, body)) = payload.split_first() {
            let _ = decode_events(body);
        }
    }
}

/// Offsets at which a frame of `bytes` ends.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut cursor = Cursor::new(bytes);
    let mut ends = Vec::new();
    while read_frame(&mut cursor)
        .expect("well-formed stream")
        .is_some()
    {
        ends.push(cursor.position() as usize);
    }
    ends
}

#[test]
fn every_truncation_decodes_or_errs() {
    let golden = golden();
    let ends = frame_ends(&golden);
    assert!(
        ends.len() > 2,
        "the fixture holds a header and event frames"
    );
    for cut in 0..=golden.len() {
        let prefix = &golden[..cut];
        decode_everything(prefix);
        // A capture cut at a frame boundary is a shorter capture; a cut
        // anywhere else must be rejected.
        assert_eq!(
            decode_capture(prefix).is_ok(),
            ends.contains(&cut),
            "truncation to {cut} bytes"
        );
    }
}

#[test]
fn bit_flips_overwrites_and_random_buffers_never_panic() {
    let golden = golden();
    let queries: Vec<Vec<u8>> = ["status", "races", "metrics", "drain", "shutdown"]
        .iter()
        .map(|name| Query::from_name(name).expect("query").encode())
        .collect();
    let mut cases = Cases(2006);
    for case in 0..3000 {
        // 1–4 bit flips of the golden stream.
        let mut flipped = golden.clone();
        for _ in 0..=cases.below(4) {
            let bit = cases.below(golden.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        decode_everything(&flipped);

        // One byte overwritten, in the stream and in a query frame.
        let mut overwritten = golden.clone();
        let at = cases.below(golden.len());
        overwritten[at] = cases.next() as u8;
        decode_everything(&overwritten);
        let mut query = queries[case % queries.len()].clone();
        let at = cases.below(query.len());
        query[at] = cases.next() as u8;
        decode_everything(&query);

        // A short random buffer.
        let random: Vec<u8> = (0..cases.below(64)).map(|_| cases.next() as u8).collect();
        decode_everything(&random);
    }
}
