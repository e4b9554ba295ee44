// n=-1 churn=77 sequence=0
long g0[13];
unsigned short g1[16];
long h(long n, long x) {
    long v = -4;
    long t = 0;
    long i = 0;
    unsigned char c = 19;
    unsigned short s = 11;
    int w = -4;
    unsigned long a0[4];
    unsigned int a1[10];
    unsigned long a2[13];
    short* b0 = (short*) malloc(22);
    char* b1 = (char*) malloc(2);
    char* z = "";
    unsigned long* p = a0 + 0;
    unsigned long* q = a0 + 5;
    t = 8 | (b1[1] = 18);
    *q = z[i];
    t = (q[-3] = c) * b0[g0[t]];
    return t + x * 3 + v * 5 + c + s + w + g0[0] + g0[12] + g1[0] + g1[15] + a0[0] + a0[3] + a1[0] + a1[9] + a2[0] + a2[12] + b0[0] + b0[10] + b1[0] + b1[1] + z[0] + z[0];
}
long f(long n) {
    return h(n, n);
}
