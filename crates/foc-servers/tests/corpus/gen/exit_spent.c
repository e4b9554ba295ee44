// n=-1 churn=77 sequence=0
long f(long n) {
    long v = 6;
    long t = 0;
    long i = 0;
    long j = 0;
    long k = 0;
    char c = 12;
    short s = 9223372036854775807;
    unsigned int w = 1;
    int a0[5];
    char* z = "z%ana";
    int* p = a0 + 5;
    int* q = a0 + 3;
    for (i = 0; i < 2; i++) {
        *q++ = v--;
    }
}
