//! Fuzz-style property tests for the wire protocol: decoding is *total*.
//!
//! The server feeds every byte a client sends through
//! [`Request::decode`], and the client symmetrically trusts
//! [`Response::decode`] on whatever comes back — so neither may ever
//! panic, over-allocate, or loop on malformed input. These properties
//! drive arbitrary bytes, truncations, and single-bit corruptions of
//! valid messages through both decoders and the frame layer.

use proptest::prelude::*;

use spb_server::wire::{
    check_payload, parse_frame_header, read_frame, write_frame, Request, Response, WireError,
    WireStats, FRAME_HEADER,
};

fn request_strategy() -> impl Strategy<Value = Request> {
    let obj = proptest::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        Just(Request::Shutdown),
        (any::<u32>(), any::<f64>(), obj.clone()).prop_map(|(deadline_ms, radius, obj)| {
            Request::Range {
                deadline_ms,
                radius,
                obj,
            }
        }),
        (any::<u32>(), any::<u32>(), obj.clone()).prop_map(|(deadline_ms, k, obj)| {
            Request::Knn {
                deadline_ms,
                k,
                obj,
            }
        }),
        (any::<u32>(), obj.clone())
            .prop_map(|(deadline_ms, obj)| Request::Insert { deadline_ms, obj }),
        (any::<u32>(), obj.clone())
            .prop_map(|(deadline_ms, obj)| Request::Delete { deadline_ms, obj }),
        (
            any::<u32>(),
            any::<f64>(),
            proptest::collection::vec(obj.clone(), 0..8)
        )
            .prop_map(|(deadline_ms, radius, objs)| Request::BatchRange {
                deadline_ms,
                radius,
                objs
            }),
        (
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(obj.clone(), 0..8)
        )
            .prop_map(|(deadline_ms, k, objs)| Request::BatchKnn {
                deadline_ms,
                k,
                objs
            }),
        (any::<u32>(), any::<f64>(), any::<f64>(), obj.clone()).prop_map(
            |(deadline_ms, radius, contraction, obj)| Request::RangeApprox {
                deadline_ms,
                radius,
                contraction,
                obj,
            }
        ),
        (any::<u32>(), any::<u32>(), any::<f64>(), obj).prop_map(|(deadline_ms, k, alpha, obj)| {
            Request::KnnApprox {
                deadline_ms,
                k,
                alpha,
                obj,
            }
        }),
    ]
}

fn stats_strategy() -> impl Strategy<Value = WireStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(compdists, page_accesses, btree_pa, raf_pa, fsyncs, duration_nanos)| WireStats {
                compdists,
                page_accesses,
                btree_pa,
                raf_pa,
                fsyncs,
                duration_nanos,
            },
        )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let obj = proptest::collection::vec(any::<u8>(), 0..32);
    let hits = proptest::collection::vec((any::<u32>(), obj.clone()), 0..6);
    let nns = proptest::collection::vec((any::<u32>(), any::<f64>(), obj), 0..6);
    prop_oneof![
        Just(Response::Shutdown),
        (
            any::<u8>(),
            proptest::collection::vec(97u8..123u8, 0..20),
            any::<u64>()
        )
            .prop_map(|(version, schema, len)| Response::Pong {
                version,
                schema: String::from_utf8(schema).expect("ascii"),
                len,
            }),
        (hits.clone(), stats_strategy()).prop_map(|(hits, stats)| Response::Range { hits, stats }),
        (nns.clone(), stats_strategy()).prop_map(|(hits, stats)| Response::Knn { hits, stats }),
        stats_strategy().prop_map(|stats| Response::Insert { stats }),
        (any::<bool>(), stats_strategy())
            .prop_map(|(found, stats)| Response::Delete { found, stats }),
        proptest::collection::vec((hits, stats_strategy()), 0..4)
            .prop_map(|queries| Response::BatchRange { queries }),
        proptest::collection::vec((nns, stats_strategy()), 0..4)
            .prop_map(|queries| Response::BatchKnn { queries }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Totality: arbitrary bytes never panic either decoder. (A success is
    // fine — some byte strings are valid messages — the property is the
    // absence of panics and runaway allocation.)
    #[test]
    fn arbitrary_bytes_never_panic_request_decode(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let payload = req.encode();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    // The one projection from wire variants to a plan: total, and the
    // approximation factor arrives in the plan bit for bit (or the
    // request has no plan at all) — it is never recomputed on the way.
    #[test]
    fn query_projection_keeps_the_wire_factor(req in request_strategy()) {
        let sent = match &req {
            Request::RangeApprox { contraction, .. } => Some(*contraction),
            Request::KnnApprox { alpha, .. } => Some(*alpha),
            _ => None,
        };
        let mut req = req;
        if let Some(Ok(query)) = req.query() {
            prop_assert_eq!(query.plan.approx().map(f64::to_bits), sent.map(f64::to_bits));
        }
    }

    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let payload = resp.encode();
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    // Any strict prefix of a valid payload is rejected, never panics.
    #[test]
    fn truncated_requests_are_rejected(req in request_strategy(), cut in 0usize..1000) {
        let payload = req.encode();
        let cut = cut % payload.len(); // strict prefix
        prop_assert!(Request::decode(&payload[..cut]).is_err());
    }

    // A flipped bit in a framed message either fails the CRC or (if it
    // hit the frame header) the length/size checks — it never reaches a
    // decoder as a clean payload claiming to be the original.
    #[test]
    fn corrupt_frames_never_pass_crc(req in request_strategy(), pos in 0usize..5000, bit in 0u8..8) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode()).unwrap();
        let pos = pos % framed.len();
        framed[pos] ^= 1 << bit;
        match read_frame(&mut framed.as_slice(), 1 << 20) {
            Err(_) => {} // CRC, length, or truncation caught it
            Ok(payload) => {
                // The flip landed in the payload *and* the CRC still
                // passed? Impossible for a single bit flip with CRC-32
                // unless the flip was in the header length making it a
                // different (shorter) valid frame — in which case the
                // payload cannot equal the original.
                prop_assert_ne!(payload, req.encode());
            }
        }
    }

    // Oversized frame headers are rejected before any allocation.
    #[test]
    fn oversized_headers_never_allocate(len in 1025u32..u32::MAX, crc in any::<u32>()) {
        let mut header = [0u8; FRAME_HEADER];
        header[0..4].copy_from_slice(&len.to_le_bytes());
        header[4..8].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            parse_frame_header(&header, 1024),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn payload_crc_detects_any_single_flip(req in request_strategy(), pos in 0usize..5000, bit in 0u8..8) {
        let payload = req.encode();
        let crc = spb_storage::crc32(&payload);
        let mut corrupted = payload.clone();
        let pos = pos % corrupted.len();
        corrupted[pos] ^= 1 << bit;
        prop_assert!(check_payload(crc, &corrupted).is_err());
    }
}

/// The encoded bytes of every request variant, pinned: opcodes, field
/// order and widths are the protocol, and `PROTOCOL_VERSION` has not
/// moved, so a peer built from any earlier commit must still parse these.
#[test]
fn request_encodings_are_golden() {
    const DEADLINE_7: [u8; 4] = [7, 0, 0, 0];
    const K_9: [u8; 4] = [9, 0, 0, 0];
    const F64_2_5: [u8; 8] = [0, 0, 0, 0, 0, 0, 0x04, 0x40];
    const F64_0_5: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F];
    const F64_1_8: [u8; 8] = [0xCD, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC, 0xFC, 0x3F];
    const OBJ_AB: [u8; 6] = [2, 0, 0, 0, b'a', b'b'];
    const OBJS_AB_EMPTY: [u8; 14] = [2, 0, 0, 0, 2, 0, 0, 0, b'a', b'b', 0, 0, 0, 0];
    let obj = || b"ab".to_vec();
    let objs = || vec![b"ab".to_vec(), Vec::new()];
    let (deadline_ms, radius, k) = (7, 2.5, 9);
    let golden: Vec<(Request, Vec<&[u8]>)> = vec![
        (Request::Ping, vec![&[1, 0x01]]),
        (
            Request::Range {
                deadline_ms,
                radius,
                obj: obj(),
            },
            vec![&[1, 0x02], &DEADLINE_7, &F64_2_5, &OBJ_AB],
        ),
        (
            Request::Knn {
                deadline_ms,
                k,
                obj: obj(),
            },
            vec![&[1, 0x03], &DEADLINE_7, &K_9, &OBJ_AB],
        ),
        (
            Request::Insert {
                deadline_ms,
                obj: obj(),
            },
            vec![&[1, 0x04], &DEADLINE_7, &OBJ_AB],
        ),
        (
            Request::Delete {
                deadline_ms,
                obj: obj(),
            },
            vec![&[1, 0x05], &DEADLINE_7, &OBJ_AB],
        ),
        (
            Request::BatchRange {
                deadline_ms,
                radius,
                objs: objs(),
            },
            vec![&[1, 0x06], &DEADLINE_7, &F64_2_5, &OBJS_AB_EMPTY],
        ),
        (
            Request::BatchKnn {
                deadline_ms,
                k,
                objs: objs(),
            },
            vec![&[1, 0x07], &DEADLINE_7, &K_9, &OBJS_AB_EMPTY],
        ),
        (Request::Stats, vec![&[1, 0x08]]),
        (Request::Shutdown, vec![&[1, 0x09]]),
        (Request::ObsStats, vec![&[1, 0x0A]]),
        (
            Request::WalShip {
                from_lsn: 0x0102_0304_0506_0708,
            },
            vec![&[1, 0x0B], &[8, 7, 6, 5, 4, 3, 2, 1]],
        ),
        (
            Request::RangeApprox {
                deadline_ms,
                radius,
                contraction: 0.5,
                obj: obj(),
            },
            vec![&[1, 0x0C], &DEADLINE_7, &F64_2_5, &F64_0_5, &OBJ_AB],
        ),
        (
            Request::KnnApprox {
                deadline_ms,
                k,
                alpha: 1.8,
                obj: obj(),
            },
            vec![&[1, 0x0D], &DEADLINE_7, &K_9, &F64_1_8, &OBJ_AB],
        ),
    ];
    assert_eq!(spb_server::PROTOCOL_VERSION, 1);
    for (req, parts) in golden {
        assert_eq!(req.encode(), parts.concat(), "{req:?}");
    }
}
