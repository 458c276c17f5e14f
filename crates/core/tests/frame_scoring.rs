//! Session-level guard for the frame scorer. Frames sent at the 4400 kbps
//! point (two-bit {0,3,5,8}, Ts = 1000, one clean noisy line, 256-bit
//! frames) arrive with flipped bits, so every report takes the banded path
//! of `scored_breakdown`. Each report's distance and breakdown must equal the
//! full-matrix oracle's on the same sent and received bits: the breakdown
//! reaches no registry table, so the golden digests do not pin it.

use analysis::edit_distance::ErrorBreakdown;
use wb_channel::channel::{ChannelConfig, NoiseConfig};
use wb_channel::encoding::SymbolEncoding;
use wb_channel::protocol::{Frame, PREAMBLE_BITS};
use wb_channel::session::ChannelSession;

#[path = "../../analysis/tests/oracle/mod.rs"]
mod oracle;

const FRAME_BITS: usize = 256;
const FRAMES: usize = 12;

#[test]
fn dense_frames_report_the_oracle_breakdown() {
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::paper_two_bit())
        .period_cycles(1_000)
        .noise(NoiseConfig::single_clean_line(1_000))
        .seed(2022)
        .build()
        .unwrap();
    let mut session = ChannelSession::new(config).unwrap();
    let mut total_distance = 0;
    for index in 0..FRAMES {
        let payload: Vec<bool> = (0..FRAME_BITS - PREAMBLE_BITS)
            .map(|bit| (bit * 7 + index * 13) % 5 < 2)
            .collect();
        let report = session
            .transmit_frame(&Frame::from_payload(&payload))
            .unwrap();
        let expected = oracle::scored_breakdown(&report.sent_bits, &report.received_bits);
        assert_eq!(
            (report.edit_distance, report.breakdown),
            expected,
            "frame {index}"
        );
        total_distance += report.edit_distance;
    }
    assert!(total_distance > 0, "no frame exercised the banded path");
}
