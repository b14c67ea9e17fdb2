//! Triangle geometry produced by the extraction algorithms and its wire
//! encoding — the payload of streamed result packets.
//!
//! Geometry is transmitted as `f32` (display precision); computation
//! happens in `f64`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use vira_grid::math::{Aabb, Vec3};

/// A bag of triangles: 9 `f32` per triangle (three vertices), no
/// connectivity. The visualization client concatenates soups from many
/// partial packets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TriangleSoup {
    /// Vertex positions, three consecutive entries per triangle.
    pub positions: Vec<[f32; 3]>,
}

impl TriangleSoup {
    pub fn new() -> Self {
        TriangleSoup::default()
    }

    pub fn with_capacity(n_triangles: usize) -> Self {
        TriangleSoup {
            positions: Vec::with_capacity(3 * n_triangles),
        }
    }

    #[inline]
    pub fn n_triangles(&self) -> usize {
        self.positions.len() / 3
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends one triangle given `f64` vertices.
    #[inline]
    pub fn push_tri(&mut self, a: Vec3, b: Vec3, c: Vec3) {
        for v in [a, b, c] {
            self.positions.push([v.x as f32, v.y as f32, v.z as f32]);
        }
    }

    /// Appends all triangles of another soup.
    pub fn extend_from(&mut self, other: &TriangleSoup) {
        self.positions.extend_from_slice(&other.positions);
    }

    /// Splits off the first `n` triangles into a new soup (fewer if not
    /// that many are available).
    pub fn drain_front(&mut self, n: usize) -> TriangleSoup {
        let take = (3 * n).min(self.positions.len());
        let rest = self.positions.split_off(take);
        TriangleSoup {
            positions: std::mem::replace(&mut self.positions, rest),
        }
    }

    /// Bounding box of all vertices.
    pub fn bbox(&self) -> Aabb {
        Aabb::from_points(
            self.positions
                .iter()
                .map(|p| Vec3::new(p[0] as f64, p[1] as f64, p[2] as f64)),
        )
    }

    /// Total surface area.
    pub fn area(&self) -> f64 {
        let mut a = 0.0;
        for t in self.positions.chunks_exact(3) {
            let p0 = Vec3::new(t[0][0] as f64, t[0][1] as f64, t[0][2] as f64);
            let p1 = Vec3::new(t[1][0] as f64, t[1][1] as f64, t[1][2] as f64);
            let p2 = Vec3::new(t[2][0] as f64, t[2][1] as f64, t[2][2] as f64);
            a += 0.5 * (p1 - p0).cross(p2 - p0).norm();
        }
        a
    }

    /// True if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.positions
            .iter()
            .all(|p| p.iter().all(|c| c.is_finite()))
    }

    /// Wire encoding: `u32` triangle count, then `9 × f32` per triangle,
    /// little-endian. The vertex block is appended in bulk
    /// ([`append_payload`](Self::append_payload)), not float by float.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.positions.len() * 12);
        buf.put_u32_le(self.n_triangles() as u32);
        self.append_payload(&mut buf);
        buf.freeze()
    }

    /// Appends the raw `9 × f32` little-endian vertex block (no count
    /// prefix) to `buf` — the bulk body shared by
    /// [`to_bytes`](Self::to_bytes) and the master-side partial-result
    /// merge, which concatenates vertex blocks from many packets without
    /// re-encoding.
    pub fn append_payload(&self, buf: &mut BytesMut) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: `[f32; 3]` is 12 bytes with no padding, and the Vec
            // stores them contiguously; on a little-endian target the
            // in-memory representation already is the wire format.
            let raw = unsafe {
                std::slice::from_raw_parts(
                    self.positions.as_ptr() as *const u8,
                    self.positions.len() * std::mem::size_of::<[f32; 3]>(),
                )
            };
            buf.extend_from_slice(raw);
        }
        #[cfg(not(target_endian = "little"))]
        for p in &self.positions {
            buf.put_f32_le(p[0]);
            buf.put_f32_le(p[1]);
            buf.put_f32_le(p[2]);
        }
    }

    /// Inverse of [`to_bytes`](Self::to_bytes). `None` on malformed input
    /// (short prefix, or body length inconsistent with the count).
    pub fn from_bytes(mut b: Bytes) -> Option<TriangleSoup> {
        if b.remaining() < 4 {
            return None;
        }
        let n = b.get_u32_le() as usize;
        if b.remaining() != n.checked_mul(36)? {
            return None;
        }
        let body: &[u8] = &b;
        let mut positions: Vec<[f32; 3]> = Vec::with_capacity(3 * n);
        #[cfg(target_endian = "little")]
        {
            // SAFETY: the body holds exactly `3 * n` vertices of 12 bytes
            // (checked above) and the Vec has room for them; `[f32; 3]`
            // has no padding and every bit pattern is a valid `f32`, and
            // on a little-endian target the wire format already is the
            // in-memory representation — the mirror of `append_payload`.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    body.as_ptr(),
                    positions.as_mut_ptr() as *mut u8,
                    body.len(),
                );
                positions.set_len(3 * n);
            }
        }
        #[cfg(not(target_endian = "little"))]
        for v in body.chunks_exact(12) {
            positions.push([
                f32::from_le_bytes([v[0], v[1], v[2], v[3]]),
                f32::from_le_bytes([v[4], v[5], v[6], v[7]]),
                f32::from_le_bytes([v[8], v[9], v[10], v[11]]),
            ]);
        }
        Some(TriangleSoup { positions })
    }
}

/// Validates a wire-encoded soup without decoding it: returns the
/// triangle count when `payload` is structurally sound (count prefix
/// consistent with the body length). The master-side merge uses this to
/// splice vertex blocks from partial packets without a decode round-trip.
pub fn payload_triangle_count(payload: &[u8]) -> Option<usize> {
    if payload.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(payload[..4].try_into().ok()?) as usize;
    (payload.len() - 4 == n.checked_mul(36)?).then_some(n)
}

/// A traced particle path: positions with their solution times.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    pub points: Vec<[f32; 3]>,
    pub times: Vec<f32>,
}

impl Polyline {
    pub fn push(&mut self, p: Vec3, t: f64) {
        self.points.push([p.x as f32, p.y as f32, p.z as f32]);
        self.times.push(t as f32);
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total arc length.
    pub fn arc_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let d = [
                    (w[1][0] - w[0][0]) as f64,
                    (w[1][1] - w[0][1]) as f64,
                    (w[1][2] - w[0][2]) as f64,
                ];
                (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
            })
            .sum()
    }

    /// Wire encoding: `u32` point count, then `4 × f32` (xyz + t) per
    /// point, little-endian.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.points.len() * 16);
        buf.put_u32_le(self.len() as u32);
        for (p, &t) in self.points.iter().zip(&self.times) {
            buf.put_f32_le(p[0]);
            buf.put_f32_le(p[1]);
            buf.put_f32_le(p[2]);
            buf.put_f32_le(t);
        }
        buf.freeze()
    }

    pub fn from_bytes(mut b: Bytes) -> Option<Polyline> {
        if b.remaining() < 4 {
            return None;
        }
        let n = b.get_u32_le() as usize;
        if b.remaining() != n * 16 {
            return None;
        }
        let mut line = Polyline::default();
        for _ in 0..n {
            let x = b.get_f32_le();
            let y = b.get_f32_le();
            let z = b.get_f32_le();
            let t = b.get_f32_le();
            line.points.push([x, y, z]);
            line.times.push(t);
        }
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_soup() -> TriangleSoup {
        let mut s = TriangleSoup::new();
        s.push_tri(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        s.push_tri(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(0.0, 2.0, 1.0),
        );
        s
    }

    #[test]
    fn soup_counts_and_area() {
        let s = tri_soup();
        assert_eq!(s.n_triangles(), 2);
        assert!((s.area() - (0.5 + 2.0)).abs() < 1e-9);
        assert!(s.is_finite());
    }

    #[test]
    fn soup_bbox() {
        let b = tri_soup().bbox();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(2.0, 2.0, 1.0));
    }

    #[test]
    fn soup_roundtrip_bytes() {
        let s = tri_soup();
        let b = s.to_bytes();
        let back = TriangleSoup::from_bytes(b).unwrap();
        assert_eq!(back, s);

        // The bulk decode is bit-exact for every f32 class, at every soup
        // size, and from a body that starts at an odd (unaligned) offset.
        let special = [-0.0f32, 1e-40, f32::INFINITY, -1.5e38, 7.25];
        for n_tri in [1usize, 3, 17] {
            let positions = (0..3 * n_tri)
                .map(|t| [special[t % 5], t as f32 * -0.5, special[(t + 2) % 5]])
                .collect();
            let s = TriangleSoup { positions };
            let mut framed = vec![0xAB];
            framed.extend_from_slice(&s.to_bytes());
            let b = Bytes::from(framed).slice(1..4 + 36 * n_tri + 1);
            let back = TriangleSoup::from_bytes(b).unwrap();
            let bits = |s: &TriangleSoup| -> Vec<u32> {
                s.positions.iter().flatten().map(|c| c.to_bits()).collect()
            };
            assert_eq!(bits(&back), bits(&s), "{n_tri} triangles");
        }
    }

    #[test]
    fn bulk_encoding_matches_per_float_reference() {
        let s = tri_soup();
        let mut reference = BytesMut::new();
        reference.put_u32_le(s.n_triangles() as u32);
        for p in &s.positions {
            reference.put_f32_le(p[0]);
            reference.put_f32_le(p[1]);
            reference.put_f32_le(p[2]);
        }
        assert_eq!(s.to_bytes(), reference.freeze());
    }

    #[test]
    fn append_payload_is_body_of_to_bytes() {
        let s = tri_soup();
        let mut body = BytesMut::new();
        s.append_payload(&mut body);
        assert_eq!(&s.to_bytes()[4..], &body[..]);
    }

    #[test]
    fn payload_triangle_count_validates() {
        let s = tri_soup();
        let b = s.to_bytes();
        assert_eq!(payload_triangle_count(&b), Some(2));
        assert_eq!(payload_triangle_count(&TriangleSoup::new().to_bytes()), Some(0));
        assert_eq!(payload_triangle_count(b"xy"), None);
        assert_eq!(payload_triangle_count(&b[..b.len() - 1]), None);
        // Count prefix inconsistent with body length.
        let mut bad = b.to_vec();
        bad[0] = 9;
        assert_eq!(payload_triangle_count(&bad), None);
    }

    #[test]
    fn soup_rejects_malformed_bytes() {
        assert!(TriangleSoup::from_bytes(Bytes::from_static(b"xy")).is_none());
        let good = tri_soup().to_bytes().to_vec();
        let mut short = good.clone();
        short.pop();
        assert!(TriangleSoup::from_bytes(Bytes::from(short)).is_none());
        let mut long = good.clone();
        long.push(0);
        assert!(TriangleSoup::from_bytes(Bytes::from(long)).is_none());
        // Counts larger than the body, up to `u32::MAX`, are rejected
        // before anything is allocated.
        let mut overcount = good.clone();
        overcount[0] = 3;
        assert!(TriangleSoup::from_bytes(Bytes::from(overcount)).is_none());
        let mut huge = good;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(TriangleSoup::from_bytes(Bytes::from(huge)).is_none());
        assert!(TriangleSoup::from_bytes(Bytes::from_static(&[1, 0, 0, 0])).is_none());
    }

    #[test]
    fn empty_soup_roundtrip() {
        let s = TriangleSoup::new();
        let back = TriangleSoup::from_bytes(s.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn drain_front_splits() {
        let mut s = tri_soup();
        let first = s.drain_front(1);
        assert_eq!(first.n_triangles(), 1);
        assert_eq!(s.n_triangles(), 1);
        let rest = s.drain_front(10);
        assert_eq!(rest.n_triangles(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = tri_soup();
        let b = tri_soup();
        a.extend_from(&b);
        assert_eq!(a.n_triangles(), 4);
    }

    #[test]
    fn polyline_roundtrip_and_length() {
        let mut l = Polyline::default();
        l.push(Vec3::ZERO, 0.0);
        l.push(Vec3::new(3.0, 4.0, 0.0), 0.1);
        l.push(Vec3::new(3.0, 4.0, 12.0), 0.2);
        assert_eq!(l.len(), 3);
        assert!((l.arc_length() - 17.0).abs() < 1e-6);
        let back = Polyline::from_bytes(l.to_bytes()).unwrap();
        assert_eq!(back, l);
        assert!(Polyline::from_bytes(Bytes::from_static(b"zz")).is_none());
    }
}
