//! Property tests of the TCP frame decoder (DESIGN.md §16): for *any*
//! way a byte stream is cut up in flight — partial reads, split
//! writes, interleaved corruption, truncated length prefixes, garbage
//! and invalid UTF-8 — [`FrameDecoder`] must recover every intact
//! frame, surface everything else as a *typed* error, resynchronize at
//! the next newline, and never panic or over-read. Driven by
//! [`SplitMix64`] like the journal property suite, so failures
//! reproduce from the printed seed.

use tlpsim_core::framedlog::frame_payload;
use tlpsim_core::net::{FrameDecoder, FrameError, MAX_FRAME};
use tlpsim_workloads::SplitMix64;

/// Feed `bytes` to a fresh decoder in random chunks of 1..=17 bytes
/// and collect everything it yields.
fn decode_chunked(bytes: &[u8], rng: &mut SplitMix64) -> Vec<Result<String, FrameError>> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let k = (1 + rng.below(17) as usize).min(bytes.len() - pos);
        dec.feed(&bytes[pos..pos + k]);
        pos += k;
        while let Some(r) = dec.next() {
            out.push(r);
        }
    }
    out
}

fn random_payload(rng: &mut SplitMix64) -> String {
    // The protocol's own shapes: verbs, numbers, record-ish tails.
    let verbs = [
        "DONE 1 CELL 4B 8",
        "HB {\"w\":1}",
        "RUNS 4 0 1 hdr",
        "TICK 9",
    ];
    let mut p = verbs[rng.below(verbs.len() as u64) as usize].to_string();
    for _ in 0..rng.below(6) {
        p.push_str(&format!(" {}", rng.next_f64()));
    }
    p
}

#[test]
fn any_chunking_of_a_clean_stream_recovers_every_frame() {
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(0xDECD_0000 + seed);
        let payloads: Vec<String> = (0..(1 + rng.below(12)))
            .map(|_| random_payload(&mut rng))
            .collect();
        let stream: String = payloads.iter().map(|p| frame_payload(p)).collect();
        let got = decode_chunked(stream.as_bytes(), &mut rng);
        let ok: Vec<&String> = got
            .iter()
            .map(|r| {
                r.as_ref()
                    .unwrap_or_else(|e| panic!("seed {seed}: typed error on clean stream: {e}"))
            })
            .collect();
        assert_eq!(
            ok,
            payloads.iter().collect::<Vec<_>>(),
            "seed {seed}: frames lost or reordered"
        );
    }
}

#[test]
fn corrupted_lines_are_typed_errors_and_never_poison_neighbours() {
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(0xDECD_1000 + seed);
        let mut expect_ok = Vec::new();
        let mut expect_err = 0usize;
        let mut stream = Vec::new();
        for _ in 0..(2 + rng.below(10)) {
            let p = random_payload(&mut rng);
            let mut line = frame_payload(&p).into_bytes();
            match rng.below(4) {
                0 => {
                    // Flip one payload byte (hex-prefix case flips are
                    // invisible to from_str_radix, so aim past the two
                    // header fields): the checksum must reject it, typed.
                    let payload_at = line
                        .iter()
                        .enumerate()
                        .filter(|(_, &b)| b == b' ')
                        .map(|(i, _)| i)
                        .nth(1)
                        .expect("framed line has two header spaces")
                        + 1;
                    let i = payload_at + rng.below((line.len() - 1 - payload_at) as u64) as usize;
                    let flipped = line[i] ^ 0x20;
                    // Skip flips that *create* a newline mid-line.
                    if flipped != b'\n' {
                        line[i] = flipped;
                        expect_err += 1;
                    } else {
                        expect_ok.push(p);
                    }
                }
                1 => {
                    // Truncate the length prefix / payload, then glue the
                    // next line on: one mangled line, one typed error.
                    let keep = 1 + rng.below((line.len() - 2) as u64) as usize;
                    line.truncate(keep);
                    line.push(b'\n');
                    expect_err += 1;
                }
                2 => {
                    // Invalid UTF-8 in the middle of the line.
                    let i = rng.below((line.len() - 1) as u64) as usize;
                    line[i] = 0xFF;
                    expect_err += 1;
                }
                _ => expect_ok.push(p),
            }
            stream.extend_from_slice(&line);
        }
        let got = decode_chunked(&stream, &mut rng);
        let ok: Vec<String> = got
            .iter()
            .filter_map(|r| r.as_ref().ok().cloned())
            .collect();
        let errs = got.len() - ok.len();
        assert_eq!(
            ok, expect_ok,
            "seed {seed}: good frames lost or corrupted ones accepted"
        );
        assert_eq!(errs, expect_err, "seed {seed}: error count drifted");
    }
}

#[test]
fn oversized_lines_error_once_and_bound_memory() {
    let mut rng = SplitMix64::new(0xDECD_2000);
    let mut dec = FrameDecoder::new();
    // A newline-free flood several times the frame bound: exactly one
    // typed Oversized error, and the buffer must not grow with the
    // flood (no over-read, no unbounded buffering).
    let junk = vec![b'x'; 64 * 1024];
    let mut errors = 0;
    for _ in 0..(3 * MAX_FRAME / junk.len() + 2) {
        let k = 1 + rng.below(junk.len() as u64 - 1) as usize;
        dec.feed(&junk[..k]);
        while let Some(r) = dec.next() {
            match r {
                Err(FrameError::Oversized { limit }) => {
                    assert_eq!(limit, MAX_FRAME);
                    errors += 1;
                }
                other => panic!("unexpected yield from flood: {other:?}"),
            }
        }
    }
    assert_eq!(errors, 1, "one flood, one typed error");
    // The terminating newline ends the flood; the next frame decodes.
    let p = "DONE 0 CELL after the flood";
    dec.feed(b"\n");
    dec.feed(frame_payload(p).as_bytes());
    let mut tail = Vec::new();
    while let Some(r) = dec.next() {
        tail.push(r);
    }
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].as_deref().unwrap(), p);
}

#[test]
fn pure_garbage_never_panics_and_intact_frames_survive_between() {
    for seed in 0..30u64 {
        let mut rng = SplitMix64::new(0xDECD_3000 + seed);
        let mut stream = Vec::new();
        let mut expect_ok = Vec::new();
        for _ in 0..(2 + rng.below(8)) {
            // A burst of random bytes (newlines included, so it may form
            // several malformed "lines")...
            for _ in 0..rng.below(120) {
                stream.push(rng.next_u64() as u8);
            }
            stream.push(b'\n'); // ...always resynchronized,
            let p = random_payload(&mut rng);
            expect_ok.push(p.clone());
            stream.extend_from_slice(frame_payload(&p).as_bytes()); // ...then an intact frame.
        }
        let got = decode_chunked(&stream, &mut rng);
        let ok: Vec<String> = got
            .iter()
            .filter_map(|r| r.as_ref().ok().cloned())
            .collect();
        assert_eq!(
            ok, expect_ok,
            "seed {seed}: intact frames lost among garbage"
        );
        // Everything else must be a typed error, not a panic (reaching
        // here proves no panic; check the errors are the typed kinds).
        for r in got {
            if let Err(e) = r {
                assert!(
                    matches!(e, FrameError::Corrupt(_) | FrameError::Oversized { .. }),
                    "untyped error from garbage: {e:?}"
                );
            }
        }
    }
}

#[test]
fn split_point_sweep_is_exhaustive_for_a_two_frame_stream() {
    // Not sampled: every single split point of a two-frame stream.
    let a = "DONE 2 CELL 4B 12 X 1 80 exact 0.5";
    let b = "HB {\"beats\":3}";
    let stream = format!("{}{}", frame_payload(a), frame_payload(b));
    let bytes = stream.as_bytes();
    for cut in 0..=bytes.len() {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.feed(&bytes[..cut]);
        while let Some(r) = dec.next() {
            got.push(r.expect("clean stream"));
        }
        dec.feed(&bytes[cut..]);
        while let Some(r) = dec.next() {
            got.push(r.expect("clean stream"));
        }
        assert_eq!(got, vec![a.to_string(), b.to_string()], "cut at {cut}");
    }
}
